package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"spanner/internal/serve"
)

// TestProtocolConstantsMatchServe pins the wire byte values to the serve
// package's enums: the server casts wire bytes straight into serve types,
// so a drift here would silently re-map query kinds.
func TestProtocolConstantsMatchServe(t *testing.T) {
	if TypeDist != uint8(serve.QueryDist) || TypePath != uint8(serve.QueryPath) || TypeRoute != uint8(serve.QueryRoute) {
		t.Fatalf("query type bytes drifted from serve: dist=%d path=%d route=%d", TypeDist, TypePath, TypeRoute)
	}
	if PriorityHigh != uint8(serve.PriorityHigh) || PriorityLow != uint8(serve.PriorityLow) {
		t.Fatalf("priority bytes drifted from serve: high=%d low=%d", PriorityHigh, PriorityLow)
	}
	// Error codes are serve's, and their bytes are protocol version 1's.
	for i, c := range []Code{CodeOK, CodeNoRoute, CodeBadVertex, CodeBadQuery, CodeOverloaded,
		CodeDeadline, CodeClosed, CodeBrownout, CodePartitioned, CodeRejected, CodeVersion,
		CodeBadFrame, CodeInternal} {
		if uint8(c) != uint8(i) {
			t.Fatalf("code %v is byte %d, protocol v1 says %d", c, uint8(c), i)
		}
	}
}

func readOne(t *testing.T, frame []byte) (Header, []byte) {
	t.Helper()
	fr := NewReader(bytes.NewReader(frame), 0)
	hdr, payload, err := fr.Next()
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	return hdr, payload
}

func TestHelloRoundTrip(t *testing.T) {
	frame := AppendHelloFrame(nil, Hello{Version: Version, Features: Features})
	hdr, payload := readOne(t, frame)
	if hdr.Type != MsgHello || hdr.Corr != 0 {
		t.Fatalf("header = %+v", hdr)
	}
	var h Hello
	if err := DecodeHello(payload, &h); err != nil {
		t.Fatalf("DecodeHello: %v", err)
	}
	if h.Version != Version || h.Features != Features {
		t.Fatalf("got %+v", h)
	}
}

func TestHelloAckRoundTrip(t *testing.T) {
	in := HelloAck{Version: 1, Features: FeatureBatch, N: 4096, Snapshot: 7, Gen: 3}
	hdr, payload := readOne(t, AppendHelloAckFrame(nil, in))
	if hdr.Type != MsgHelloAck {
		t.Fatalf("type = %d", hdr.Type)
	}
	var a HelloAck
	if err := DecodeHelloAck(payload, &a); err != nil {
		t.Fatalf("DecodeHelloAck: %v", err)
	}
	if a != in {
		t.Fatalf("got %+v want %+v", a, in)
	}
}

func TestQueryRoundTrip(t *testing.T) {
	in := Query{Type: TypeRoute, Priority: PriorityLow, AllowDegraded: true, U: 12, V: -1, DeadlineMS: 1500}
	hdr, payload := readOne(t, AppendQueryFrame(nil, 42, in))
	if hdr.Type != MsgQuery || hdr.Corr != 42 {
		t.Fatalf("header = %+v", hdr)
	}
	var q Query
	if err := DecodeQuery(payload, &q); err != nil {
		t.Fatalf("DecodeQuery: %v", err)
	}
	if q != in {
		t.Fatalf("got %+v want %+v", q, in)
	}
}

func TestBatchRoundTrip(t *testing.T) {
	in := []Query{
		{Type: TypeDist, U: 1, V: 2},
		{Type: TypePath, Priority: PriorityLow, U: 3, V: 4, DeadlineMS: 9},
		{Type: TypeDist, AllowDegraded: true, U: 5, V: 6},
	}
	hdr, payload := readOne(t, AppendBatchFrame(nil, 7, in))
	if hdr.Type != MsgBatch || hdr.Corr != 7 {
		t.Fatalf("header = %+v", hdr)
	}
	qs, err := DecodeBatch(payload, nil)
	if err != nil {
		t.Fatalf("DecodeBatch: %v", err)
	}
	if len(qs) != len(in) {
		t.Fatalf("len = %d", len(qs))
	}
	for i := range in {
		if qs[i] != in[i] {
			t.Fatalf("entry %d: got %+v want %+v", i, qs[i], in[i])
		}
	}
}

func replyEqual(a, b *Reply) bool {
	if a.Type != b.Type || a.Code != b.Code || a.Cached != b.Cached ||
		a.Degraded != b.Degraded || a.Composed != b.Composed || a.HasBound != b.HasBound ||
		a.U != b.U || a.V != b.V || a.Dist != b.Dist || a.Bound != b.Bound ||
		a.Snapshot != b.Snapshot || a.Gen != b.Gen || a.Detail != b.Detail ||
		len(a.Path) != len(b.Path) {
		return false
	}
	for i := range a.Path {
		if a.Path[i] != b.Path[i] {
			return false
		}
	}
	return true
}

func TestReplyRoundTrip(t *testing.T) {
	cases := []Reply{
		{Type: TypeDist, U: 1, V: 2, Dist: 5, Snapshot: 3, Gen: 1, Cached: true},
		{Type: TypePath, U: 1, V: 9, Dist: 4, Path: []int32{1, 5, 7, 9}, Snapshot: 3},
		{Type: TypeRoute, U: 2, V: 3, Dist: 6, Bound: 4, HasBound: true, Composed: true, Degraded: true},
		{Type: TypeDist, Code: CodeNoRoute, U: 0, V: 8, Dist: -1, Detail: "no route from 0 to 8"},
	}
	for i, in := range cases {
		hdr, payload := readOne(t, AppendReplyFrame(nil, uint64(i+1), &in))
		if hdr.Type != MsgReply || hdr.Corr != uint64(i+1) {
			t.Fatalf("case %d: header = %+v", i, hdr)
		}
		var out Reply
		if err := DecodeReply(payload, &out); err != nil {
			t.Fatalf("case %d: DecodeReply: %v", i, err)
		}
		if !replyEqual(&out, &in) {
			t.Fatalf("case %d: got %+v want %+v", i, out, in)
		}
	}
}

func TestReplyDecodeReusesPath(t *testing.T) {
	in := Reply{Type: TypePath, Path: []int32{1, 2, 3}}
	_, payload := readOne(t, AppendReplyFrame(nil, 1, &in))
	out := Reply{Path: make([]int32, 0, 16)}
	base := &out.Path[:1][0]
	if err := DecodeReply(payload, &out); err != nil {
		t.Fatalf("DecodeReply: %v", err)
	}
	if &out.Path[0] != base {
		t.Fatal("decode reallocated the path buffer despite spare capacity")
	}
}

func TestBatchReplyRoundTripAndIter(t *testing.T) {
	in := []Reply{
		{Type: TypeDist, U: 1, V: 2, Dist: 3},
		{Type: TypePath, U: 4, V: 5, Dist: 2, Path: []int32{4, 9, 5}},
		{Type: TypeDist, Code: CodeBadVertex, Detail: "vertex 99 out of range"},
	}
	frame := AppendBatchReplyFrame(nil, 11, in)
	hdr, payload := readOne(t, frame)
	if hdr.Type != MsgBatchReply {
		t.Fatalf("type = %d", hdr.Type)
	}
	rs, err := DecodeBatchReply(payload, nil)
	if err != nil {
		t.Fatalf("DecodeBatchReply: %v", err)
	}
	if len(rs) != len(in) {
		t.Fatalf("len = %d", len(rs))
	}
	for i := range in {
		if !replyEqual(&rs[i], &in[i]) {
			t.Fatalf("entry %d: got %+v want %+v", i, rs[i], in[i])
		}
	}

	it, err := IterBatchReply(payload)
	if err != nil {
		t.Fatalf("IterBatchReply: %v", err)
	}
	if it.N != len(in) {
		t.Fatalf("N = %d", it.N)
	}
	var rep Reply
	for i := range in {
		if err := it.Next(&rep); err != nil {
			t.Fatalf("Next %d: %v", i, err)
		}
		if !replyEqual(&rep, &in[i]) {
			t.Fatalf("iter entry %d: got %+v want %+v", i, rep, in[i])
		}
	}
	if err := it.Err(); err != nil {
		t.Fatalf("Err after full walk: %v", err)
	}
}

func TestHealthzRoundTrip(t *testing.T) {
	hdr, payload := readOne(t, AppendHealthzFrame(nil, 5))
	if hdr.Type != MsgHealthz || hdr.Corr != 5 || len(payload) != 0 {
		t.Fatalf("header = %+v payload = %d bytes", hdr, len(payload))
	}
	in := HealthzReply{N: 100, Snapshot: 2, Gen: 9, Status: "ok", SLO: "meeting SLO"}
	_, payload = readOne(t, AppendHealthzReplyFrame(nil, 5, in))
	var h HealthzReply
	if err := DecodeHealthzReply(payload, &h); err != nil {
		t.Fatalf("DecodeHealthzReply: %v", err)
	}
	if h != in {
		t.Fatalf("got %+v want %+v", h, in)
	}
}

func TestErrorFrameRoundTrip(t *testing.T) {
	in := ErrorFrame{Code: CodeRejected, RetryAfterMS: 1000, Detail: "batch of 9 exceeds the current limit of 4"}
	hdr, payload := readOne(t, AppendErrorFrame(nil, 3, in))
	if hdr.Type != MsgError || hdr.Corr != 3 {
		t.Fatalf("header = %+v", hdr)
	}
	var e ErrorFrame
	if err := DecodeError(payload, &e); err != nil {
		t.Fatalf("DecodeError: %v", err)
	}
	if e != in {
		t.Fatalf("got %+v want %+v", e, in)
	}
}

func TestReaderMultipleFrames(t *testing.T) {
	var buf []byte
	buf = AppendQueryFrame(buf, 1, Query{Type: TypeDist, U: 1, V: 2})
	buf = AppendHealthzFrame(buf, 2)
	buf = AppendQueryFrame(buf, 3, Query{Type: TypePath, U: 3, V: 4})
	fr := NewReader(bytes.NewReader(buf), 0)
	wantTypes := []uint8{MsgQuery, MsgHealthz, MsgQuery}
	wantCorr := []uint64{1, 2, 3}
	for i := range wantTypes {
		hdr, _, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if hdr.Type != wantTypes[i] || hdr.Corr != wantCorr[i] {
			t.Fatalf("frame %d: header = %+v", i, hdr)
		}
	}
	if _, _, err := fr.Next(); err != io.EOF {
		t.Fatalf("after last frame: %v, want io.EOF", err)
	}
}

func TestReaderErrors(t *testing.T) {
	good := AppendQueryFrame(nil, 1, Query{Type: TypeDist, U: 1, V: 2})

	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[0] = 'X'
		_, _, err := NewReader(bytes.NewReader(bad), 0).Next()
		if !errors.Is(err, ErrMagic) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("truncated header", func(t *testing.T) {
		_, _, err := NewReader(bytes.NewReader(good[:HeaderSize-3]), 0).Next()
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("truncated payload", func(t *testing.T) {
		_, _, err := NewReader(bytes.NewReader(good[:len(good)-4]), 0).Next()
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("checksum flip", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[len(bad)-1] ^= 0xff
		_, _, err := NewReader(bytes.NewReader(bad), 0).Next()
		if !errors.Is(err, ErrChecksum) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("payload flip", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[HeaderSize] ^= 0xff
		_, _, err := NewReader(bytes.NewReader(bad), 0).Next()
		if !errors.Is(err, ErrChecksum) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("oversized", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[4] = 0xff // payload length low byte
		bad[5] = 0xff
		_, _, err := NewReader(bytes.NewReader(bad), 1024).Next()
		if !errors.Is(err, ErrTooLarge) {
			t.Fatalf("err = %v", err)
		}
	})
}

// TestDecodeCorrupt runs every payload decoder over truncations and
// trailing-garbage variants of a valid payload: all must fail ErrCorrupt,
// none may panic.
func TestDecodeCorrupt(t *testing.T) {
	rep := Reply{Type: TypePath, Path: []int32{1, 2, 3}, Detail: "x"}
	payloadOf := func(frame []byte) []byte {
		return frame[HeaderSize : len(frame)-TrailerSize]
	}
	cases := []struct {
		name    string
		payload []byte
		decode  func([]byte) error
	}{
		{"hello", payloadOf(AppendHelloFrame(nil, Hello{Version: 1})), func(p []byte) error {
			var h Hello
			return DecodeHello(p, &h)
		}},
		{"helloack", payloadOf(AppendHelloAckFrame(nil, HelloAck{Version: 1})), func(p []byte) error {
			var a HelloAck
			return DecodeHelloAck(p, &a)
		}},
		{"query", payloadOf(AppendQueryFrame(nil, 1, Query{Type: TypeDist})), func(p []byte) error {
			var q Query
			return DecodeQuery(p, &q)
		}},
		{"batch", payloadOf(AppendBatchFrame(nil, 1, []Query{{}, {}})), func(p []byte) error {
			_, err := DecodeBatch(p, nil)
			return err
		}},
		{"reply", payloadOf(AppendReplyFrame(nil, 1, &rep)), func(p []byte) error {
			var r Reply
			return DecodeReply(p, &r)
		}},
		{"batchreply", payloadOf(AppendBatchReplyFrame(nil, 1, []Reply{rep, rep})), func(p []byte) error {
			_, err := DecodeBatchReply(p, nil)
			return err
		}},
		{"healthzreply", payloadOf(AppendHealthzReplyFrame(nil, 1, HealthzReply{Status: "ok"})), func(p []byte) error {
			var h HealthzReply
			return DecodeHealthzReply(p, &h)
		}},
		{"error", payloadOf(AppendErrorFrame(nil, 1, ErrorFrame{Code: CodeInternal, Detail: "x"})), func(p []byte) error {
			var e ErrorFrame
			return DecodeError(p, &e)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.decode(tc.payload); err != nil {
				t.Fatalf("valid payload rejected: %v", err)
			}
			for cut := 0; cut < len(tc.payload); cut++ {
				if err := tc.decode(tc.payload[:cut]); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("truncation to %d bytes: err = %v, want ErrCorrupt", cut, err)
				}
			}
			long := append(append([]byte(nil), tc.payload...), 0xaa)
			if err := tc.decode(long); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("trailing byte: err = %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestCountPrefixBounds verifies the artifact-reader idiom: a huge declared
// count with a tiny payload must fail before allocating.
func TestCountPrefixBounds(t *testing.T) {
	// A batch payload claiming 2^31 queries but carrying none.
	p := le32(nil, 1<<31)
	if _, err := DecodeBatch(p, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if _, err := DecodeBatchReply(p, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if _, err := IterBatchReply(p); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("iter err = %v, want ErrCorrupt", err)
	}
}

func TestCodeStrings(t *testing.T) {
	if CodeOK.String() != "ok" || CodeBrownout.String() != "brownout" {
		t.Fatalf("code names broken: %v %v", CodeOK, CodeBrownout)
	}
	if Code(200).String() != "code-200" {
		t.Fatalf("out-of-range code: %v", Code(200))
	}
}
