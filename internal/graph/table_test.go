package graph

import (
	"errors"
	"slices"
	"testing"
)

func TestGroupTableSortsAndMarksRows(t *testing.T) {
	// Row 1 arrives out of key order, row 2 gets nothing, row 3 in order.
	rows := []int32{1, 3, 1, 3, 1}
	keys := []int32{9, 2, 4, 5, 6}
	vals := []int32{90, 20, 40, 50, 60}
	tb := GroupTable(4, rows, keys, vals)
	if tb.N() != 4 || tb.Entries() != 5 {
		t.Fatalf("N=%d Entries=%d, want 4 and 5", tb.N(), tb.Entries())
	}
	k, v := tb.Row(1)
	if want := []int32{4, 6, 9}; !slices.Equal(k, want) || !slices.Equal(v, []int32{40, 60, 90}) {
		t.Fatalf("row 1 = %v/%v, want keys %v with values carried", k, v, want)
	}
	for _, r := range []int32{0, 2} {
		if tb.Has(r) || tb.Len(r) != 0 {
			t.Fatalf("row %d should be absent", r)
		}
	}
	for _, c := range []struct{ row, key, val int32 }{{1, 4, 40}, {1, 9, 90}, {3, 2, 20}, {3, 5, 50}} {
		if got, ok := tb.Get(c.row, c.key); !ok || got != c.val {
			t.Fatalf("Get(%d,%d) = %d,%v, want %d", c.row, c.key, got, ok, c.val)
		}
	}
	for _, c := range [][2]int32{{1, 5}, {1, 10}, {1, 0}, {0, 4}, {2, 2}} {
		if _, ok := tb.Get(c[0], c[1]); ok {
			t.Fatalf("Get(%d,%d) found a missing key", c[0], c[1])
		}
	}
}

func TestTableStreamingAndPrune(t *testing.T) {
	tb := NewTable(3, 4)
	for _, kv := range [][2]int32{{1, 10}, {3, 30}} {
		if err := tb.Append(kv[0], kv[1]); err != nil {
			t.Fatal(err)
		}
	}
	tb.EndRow(true)
	tb.EndRow(true) // present but empty
	if err := tb.Append(7, 70); err != nil {
		t.Fatal(err)
	}
	tb.EndRow(false) // absent: its entry is dropped
	if tb.N() != 3 || tb.Entries() != 2 || !tb.Has(1) || tb.Len(1) != 0 || tb.Has(2) {
		t.Fatalf("streamed table: N=%d Entries=%d has(1)=%v len(1)=%d has(2)=%v",
			tb.N(), tb.Entries(), tb.Has(1), tb.Len(1), tb.Has(2))
	}
	for name, keys := range map[string][]int32{"unsorted": {5, 2}, "duplicate": {5, 5}} {
		s := NewTable(1, 2)
		s.Append(keys[0], 0)
		if err := s.Append(keys[1], 0); !errors.Is(err, ErrUnsortedRow) {
			t.Fatalf("%s keys: got %v, want ErrUnsortedRow", name, err)
		}
	}
	p := tb.Prune([]bool{false, true})
	if p.Has(0) || !p.Has(1) || p.Has(2) || !tb.Has(0) {
		t.Fatal("Prune kept the wrong rows or touched the original")
	}
	if _, ok := p.Get(0, 1); ok {
		t.Fatal("pruned row still answers")
	}
}
