package graph

import (
	"errors"
	"slices"
	"sort"
)

// ErrUnsortedRow reports a Table row whose keys are not strictly ascending
// (an unsorted or duplicate key), which a decoder must refuse rather than
// silently merge.
var ErrUnsortedRow = errors.New("graph: table row keys not strictly ascending")

// Table is a read-only per-vertex sorted map from int32 keys to int32
// values in CSR form: row v holds keys[off[v]:off[v+1]] in strictly
// ascending order with the matching vals. A separate presence bit per row
// keeps an absent row (never built, or pruned) distinct from an empty one.
// Lookups are a binary search over one contiguous run and allocate nothing;
// the whole table is four flat slices, so it costs no per-row headers.
//
// Build a Table with GroupTable (unordered triples) or by streaming rows in
// vertex order through NewTable, Append and EndRow.
type Table struct {
	off  []int // len rows+1 once complete
	keys []int32
	vals []int32
	has  []uint64 // presence bit per row
}

// NewTable returns an empty table ready for rows 0..n-1 to be streamed in
// with Append and EndRow; entries is a capacity hint for the total count.
func NewTable(n, entries int) *Table {
	return &Table{
		off:  make([]int, 1, n+1),
		keys: make([]int32, 0, entries),
		vals: make([]int32, 0, entries),
		has:  make([]uint64, (n+63)/64),
	}
}

// Append adds an entry to the row being streamed. It returns ErrUnsortedRow
// unless key is strictly greater than the row's previous key.
func (t *Table) Append(key, val int32) error {
	if last := len(t.keys); last > t.off[len(t.off)-1] && t.keys[last-1] >= key {
		return ErrUnsortedRow
	}
	t.keys = append(t.keys, key)
	t.vals = append(t.vals, val)
	return nil
}

// EndRow closes the row being streamed; present sets its presence bit. An
// absent row drops any entries appended to it.
func (t *Table) EndRow(present bool) {
	row := len(t.off) - 1
	if present {
		t.has[row>>6] |= 1 << (row & 63)
	} else {
		t.keys = t.keys[:t.off[row]]
		t.vals = t.vals[:t.off[row]]
	}
	t.off = append(t.off, len(t.keys))
}

// GroupTable builds an n-row table from (row, key, val) triples given in
// any order, by a stable counting sort on row; rows that receive an entry
// are present, all others absent. Triples emitted in ascending key order
// land sorted as they are; any other row is sorted in place. No (row, key)
// pair may repeat.
func GroupTable(n int, rows, keys, vals []int32) *Table {
	t := &Table{
		off:  make([]int, n+1),
		keys: make([]int32, len(rows)),
		vals: make([]int32, len(rows)),
		has:  make([]uint64, (n+63)/64),
	}
	for _, r := range rows {
		t.off[r+1]++
	}
	for v := 0; v < n; v++ {
		if t.off[v+1] > 0 {
			t.has[v>>6] |= 1 << (v & 63)
		}
		t.off[v+1] += t.off[v]
	}
	next := make([]int, n)
	copy(next, t.off[:n])
	for i, r := range rows {
		p := next[r]
		next[r]++
		t.keys[p], t.vals[p] = keys[i], vals[i]
	}
	for v := 0; v < n; v++ {
		lo, hi := t.off[v], t.off[v+1]
		if !slices.IsSorted(t.keys[lo:hi]) {
			sort.Sort(rowSorter{t.keys[lo:hi], t.vals[lo:hi]})
		}
	}
	return t
}

// rowSorter sorts one row's keys ascending, carrying the values along.
type rowSorter struct{ keys, vals []int32 }

func (r rowSorter) Len() int           { return len(r.keys) }
func (r rowSorter) Less(i, j int) bool { return r.keys[i] < r.keys[j] }
func (r rowSorter) Swap(i, j int) {
	r.keys[i], r.keys[j] = r.keys[j], r.keys[i]
	r.vals[i], r.vals[j] = r.vals[j], r.vals[i]
}

// N returns the number of rows.
func (t *Table) N() int { return len(t.off) - 1 }

// Has reports whether row v is present.
func (t *Table) Has(v int32) bool { return t.has[v>>6]&(1<<(v&63)) != 0 }

// Row returns row v's keys and values (nil for an absent row). The slices
// alias the table and must not be modified.
func (t *Table) Row(v int32) (keys, vals []int32) {
	if !t.Has(v) {
		return nil, nil
	}
	lo, hi := t.off[v], t.off[v+1]
	return t.keys[lo:hi], t.vals[lo:hi]
}

// Len returns the number of entries in row v (0 for an absent row).
func (t *Table) Len(v int32) int {
	if !t.Has(v) {
		return 0
	}
	return t.off[v+1] - t.off[v]
}

// Entries returns the number of entries over all present rows.
func (t *Table) Entries() int {
	total := 0
	for v := int32(0); int(v) < t.N(); v++ {
		total += t.Len(v)
	}
	return total
}

// Get returns the value stored under key in row v, by binary search.
func (t *Table) Get(v, key int32) (int32, bool) {
	if !t.Has(v) {
		return 0, false
	}
	lo, hi := t.off[v], t.off[v+1]
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < t.off[v+1] && t.keys[lo] == key {
		return t.vals[lo], true
	}
	return 0, false
}

// Prune returns a table sharing t's entries in which only rows with keep[v]
// stay present; it copies just the presence bits.
func (t *Table) Prune(keep []bool) *Table {
	p := &Table{off: t.off, keys: t.keys, vals: t.vals, has: make([]uint64, len(t.has))}
	for v := int32(0); int(v) < t.N(); v++ {
		if int(v) < len(keep) && keep[v] && t.Has(v) {
			p.has[v>>6] |= 1 << (v & 63)
		}
	}
	return p
}
