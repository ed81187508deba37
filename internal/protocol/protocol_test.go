package protocol

import (
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"

	"dbtouch/internal/core"
	"dbtouch/internal/gesture"
	"dbtouch/internal/operator"
	"dbtouch/internal/storage"
)

func TestRequestEncodeDecodeLossless(t *testing.T) {
	k := 7
	on := true
	g := gesture.NewSlidePause(0, 1500*time.Millisecond, 0.3, 250*time.Millisecond)
	reqs := []Request{
		{Op: OpOpen, Session: "u"},
		{Op: OpCreate, Session: "u", Object: "col",
			Create: &CreateSpec{Table: "t", Column: "v", X: 2, Y: 2, W: 2, H: 10}},
		{Op: OpConfigure, Session: "u", Object: "col",
			Actions: &ActionsSpec{Mode: "summary", Agg: "avg", K: &k, ValueOrder: &on,
				Where: []FilterSpec{{Column: "v", Op: ">=", Value: 12.5}}}},
		{Op: OpPerform, Session: "u", Object: "col", Gesture: &g},
		{Op: OpIdle, Session: "u", Idle: 3 * time.Second},
		{Op: OpPin, Session: "u", Object: "col", As: "hot",
			Create: &CreateSpec{X: 9, Y: 2, W: 2, H: 6}},
		{Op: OpStats},
	}
	for _, req := range reqs {
		data, err := EncodeRequest(req)
		if err != nil {
			t.Fatalf("%s: %v", req.Op, err)
		}
		back, err := DecodeRequest(data)
		if err != nil {
			t.Fatalf("%s: %v", req.Op, err)
		}
		req.V = Version // EncodeRequest stamps it
		if !reflect.DeepEqual(req, back) {
			t.Fatalf("%s: round trip lost information:\n got %+v\nwant %+v\nwire %s", req.Op, back, req, data)
		}
	}
}

func TestDecodeRequestVersionGate(t *testing.T) {
	if _, err := DecodeRequest([]byte(`{"op":"stats"}`)); err == nil {
		t.Fatal("missing version must be rejected")
	}
	if _, err := DecodeRequest([]byte(`{"v":99,"op":"stats"}`)); err == nil {
		t.Fatal("future version must be rejected")
	}
	if _, err := DecodeRequest([]byte(`{"v":1,`)); err == nil {
		t.Fatal("malformed JSON must be rejected")
	}
	if _, err := DecodeRequest([]byte(`{"v":1,"op":"stats"}`)); err != nil {
		t.Fatal("current version must be accepted")
	}
}

func TestFrameResult(t *testing.T) {
	r := core.Result{
		Kind: core.ScanValue, ObjectID: 3, TupleID: 41,
		Value: storage.IntValue(99), Level: 2,
		Time: time.Second, FadeAt: 2500 * time.Millisecond, Latency: 65 * time.Millisecond,
	}
	f := FrameResult(r)
	if f.Kind != "scan" || f.Value != "99" || f.TupleID != 41 || f.Time != time.Second {
		t.Fatalf("frame = %+v", f)
	}
	j := FrameResult(core.Result{Kind: core.JoinMatches, Matches: make([]operator.JoinMatch, 4)})
	if j.Matches != 4 || j.Kind != "join" {
		t.Fatalf("join frame = %+v", j)
	}
}

func TestActionsSpecApply(t *testing.T) {
	m, err := storage.NewMatrix("t",
		storage.NewIntColumn("v", []int64{1, 2, 3}),
		storage.NewStringColumn("s", []string{"a", "b", "c"}),
	)
	if err != nil {
		t.Fatal(err)
	}
	cur := core.Actions{Mode: core.ModeScan}
	k := 4
	spec := ActionsSpec{Mode: "summary", Agg: "max", K: &k,
		Where: []FilterSpec{{Column: "v", Op: "<", Value: 10.0}, {Column: "s", Op: "=", Value: "b"}}}
	got, err := spec.Apply(cur, m)
	if err != nil {
		t.Fatal(err)
	}
	if got.Mode != core.ModeSummary || got.Agg != operator.Max || got.SummaryK != 4 {
		t.Fatalf("applied = %+v", got)
	}
	if len(got.Filters) != 2 || got.Filters[0].Col != 0 || got.Filters[1].Col != 1 {
		t.Fatalf("filters = %+v", got.Filters)
	}
	if got.Filters[1].Operand != storage.StringValue("b") {
		t.Fatalf("operand = %+v", got.Filters[1].Operand)
	}
	if len(cur.Filters) != 0 {
		t.Fatal("Apply mutated the input actions")
	}

	// The delta keeps unset fields.
	kept, err := ActionsSpec{Agg: "min"}.Apply(got, m)
	if err != nil {
		t.Fatal(err)
	}
	if kept.Mode != core.ModeSummary || kept.Agg != operator.Min || kept.SummaryK != 4 || len(kept.Filters) != 2 {
		t.Fatalf("delta clobbered settings: %+v", kept)
	}

	// Errors reject the delta wholesale.
	for _, bad := range []ActionsSpec{
		{Mode: "warp"},
		{Agg: "median"},
		{Where: []FilterSpec{{Column: "ghost", Op: "=", Value: 1.0}}},
		{Where: []FilterSpec{{Column: "v", Op: "~", Value: 1.0}}},
	} {
		if _, err := bad.Apply(cur, m); err == nil {
			t.Fatalf("%+v should be rejected", bad)
		}
	}
	neg := -1
	if _, err := (ActionsSpec{K: &neg}).Apply(cur, m); err == nil || !strings.Contains(err.Error(), "negative") {
		t.Fatalf("negative k: %v", err)
	}
}

func TestCoerceValue(t *testing.T) {
	cases := []struct {
		in   any
		want storage.Value
	}{
		{12.5, storage.FloatValue(12.5)},
		{int(3), storage.IntValue(3)},
		{int64(4), storage.IntValue(4)},
		{true, storage.BoolValue(true)},
		{"x", storage.StringValue("x")},
		{[]int{1}, storage.StringValue("[1]")},
	}
	for _, c := range cases {
		if got := CoerceValue(c.in); got != c.want {
			t.Fatalf("CoerceValue(%v) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

// TestBigBodyFieldsCopied: the fields of a body past pinBytes are copies,
// so that a table name or session id kept after the request does not keep
// a thousand-row append alive; a small body's fields share its bytes.
func TestBigBodyFieldsCopied(t *testing.T) {
	shares := func(field, body string) bool {
		lo := uintptr(unsafe.Pointer(unsafe.StringData(body)))
		p := uintptr(unsafe.Pointer(unsafe.StringData(field)))
		return lo <= p && p < lo+uintptr(len(body))
	}
	const head = `{"v":2,"op":"append","session":"s","table":"events","rows":[[1,"a",2]`
	small := head + `]}`
	big := head + strings.Repeat(`,[1,"a",2]`, pinBytes/8) + `]}`
	for _, tc := range []struct {
		body   string
		shared bool
	}{{small, true}, {big, false}} {
		r, ok := readRequest(tc.body)
		if !ok {
			t.Fatalf("%d-byte body left the fast shape", len(tc.body))
		}
		for _, f := range []string{r.Op, r.Session, r.Table} {
			if shares(f, tc.body) != tc.shared {
				t.Errorf("%d-byte body: field %q shares its bytes: %v, want %v", len(tc.body), f, !tc.shared, tc.shared)
			}
		}
	}
}
