package effects

import (
	"reflect"
	"strings"
	"testing"

	"cnetverifier/internal/fsm"
	"cnetverifier/internal/model"
	"cnetverifier/internal/types"
)

// Synthetic specs for the independence tests. Each helper returns a
// fresh *Spec so the per-pointer memoization in ForSpec never aliases
// two tests' specs.

func writerSpec(global string) *fsm.Spec {
	return &fsm.Spec{
		Name: "writer", Init: "Idle",
		Transitions: []fsm.Transition{
			{Name: "write", From: "Idle", To: "Done", On: types.MsgUserDataOn,
				Action: func(c fsm.Ctx, e fsm.Event) { c.Set(global, 1) }},
		},
	}
}

func readerSpec(global string) *fsm.Spec {
	return &fsm.Spec{
		Name: "reader", Init: "Idle",
		Transitions: []fsm.Transition{
			{Name: "read", From: "Idle", To: "Done", On: types.MsgUserDataOn,
				Guard: func(c fsm.Ctx, e fsm.Event) bool { return c.Get(global) == 1 }},
		},
	}
}

func senderSpec(to string) *fsm.Spec {
	return &fsm.Spec{
		Name: "sender", Init: "Idle", Proto: types.ProtoGMM,
		Transitions: []fsm.Transition{
			{Name: "send", From: "Idle", To: "Done", On: types.MsgUserDataOn,
				Action: func(c fsm.Ctx, e fsm.Event) {
					c.Send(to, types.NewMessage(types.MsgAttachRequest, types.ProtoGMM))
				}},
		},
	}
}

func sinkSpec() *fsm.Spec {
	return &fsm.Spec{
		Name: "sink", Init: "Idle", Proto: types.ProtoGMM,
		Transitions: []fsm.Transition{
			{Name: "recv", From: "Idle", To: "Done", On: types.MsgAttachRequest},
		},
	}
}

func mustWorld(t *testing.T, cfg model.Config) *model.World {
	t.Helper()
	w, err := model.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestClustersGlobalAndMessageCoupling pins the two coupling sources
// the may-interact relation must see — a shared global between a and
// b, a message flow from d to c — and the independence of everything
// else: the four-process world decomposes into exactly {a,b} and
// {c,d}.
func TestClustersGlobalAndMessageCoupling(t *testing.T) {
	w := mustWorld(t, model.Config{
		Globals: map[string]int{"g.shared": 0, "g.other": 0},
		Procs: []model.ProcConfig{
			{Name: "a", Spec: writerSpec("g.shared")},
			{Name: "b", Spec: readerSpec("g.shared")},
			{Name: "c", Spec: sinkSpec()},
			{Name: "d", Spec: senderSpec("c")},
		},
	})
	we := Analyze(w)

	if !we.MayInteract(0, 0, 1, 0) {
		t.Error("writer/reader of g.shared not marked as interacting")
	}
	if !we.MayInteract(3, 0, 2, 0) {
		t.Error("sender edge addressing c not marked as interacting with c")
	}
	if we.MayInteract(0, 0, 2, 0) || !we.Independent(0, 0, 3, 0) {
		t.Error("edges with disjoint globals and no flows must be independent")
	}
	if !we.MayInteract(0, 0, 0, 0) {
		t.Error("an edge must always interact with its own machine")
	}

	want := [][]int{{0, 1}, {2, 3}}
	if got := we.Clusters(); !reflect.DeepEqual(got, want) {
		t.Errorf("Clusters() = %v, want %v", got, want)
	}
	wantNames := [][]string{{"a", "b"}, {"c", "d"}}
	if got := we.ClusterNames(); !reflect.DeepEqual(got, wantNames) {
		t.Errorf("ClusterNames() = %v, want %v", got, wantNames)
	}
}

// TestSharedDestinationCouples pins the queue-order race: two senders
// that never share a global but both enqueue into the same inbox must
// land in one cluster (their sends race on c's queue order).
func TestSharedDestinationCouples(t *testing.T) {
	w := mustWorld(t, model.Config{
		Procs: []model.ProcConfig{
			{Name: "a", Spec: senderSpec("c")},
			{Name: "b", Spec: senderSpec("c")},
			{Name: "c", Spec: sinkSpec()},
		},
	})
	we := Analyze(w)
	if !we.MayInteract(0, 0, 1, 0) {
		t.Error("two senders into the same inbox must interact")
	}
	if got := we.Clusters(); len(got) != 1 {
		t.Errorf("Clusters() = %v, want one cluster", got)
	}
}

// TestPanickedEdgePoisonsIndependence is the conservative-direction
// regression test: an edge whose guard panics under every probe could
// not be summarized, so it may interact with everything — even a
// process it shares no visible state with.
func TestPanickedEdgePoisonsIndependence(t *testing.T) {
	panicky := &fsm.Spec{
		Name: "panicky", Init: "Idle",
		Transitions: []fsm.Transition{
			{Name: "boom", From: "Idle", To: "Done", On: types.MsgUserDataOn,
				Guard: func(c fsm.Ctx, e fsm.Event) bool { panic("unsummarizable") }},
		},
	}
	w := mustWorld(t, model.Config{
		Globals: map[string]int{"g.other": 0},
		Procs: []model.ProcConfig{
			{Name: "p", Spec: panicky},
			{Name: "q", Spec: writerSpec("g.other")},
		},
	})
	we := Analyze(w)
	if !we.Procs[0].Spec.Edges[0].Panicked {
		t.Fatal("Panicked not set on the panicking edge")
	}
	if we.Independent(0, 0, 1, 0) {
		t.Error("a panicked edge was declared independent — the relation must poison it")
	}
	if got := we.Clusters(); len(got) != 1 {
		t.Errorf("Clusters() = %v, want one cluster (panic poisoning)", got)
	}
}

// TestProbeEdgePanicSummarizedOnce mirrors the internal/lint probing
// regression at the effects layer: an edge that panics under most
// probes is summarized exactly once, keeps the facts recorded before
// each panic, and reports guard satisfiability from the surviving
// probes only.
func TestProbeEdgePanicSummarizedOnce(t *testing.T) {
	s := &fsm.Spec{
		Name: "partial", Init: "A",
		Transitions: []fsm.Transition{
			{Name: "t0", From: "A", To: "B", On: types.MsgUserDataOn,
				Guard: func(c fsm.Ctx, e fsm.Event) bool {
					if c.Get("g.mode") != 2 {
						panic("unexpected mode")
					}
					return true
				},
				Action: func(c fsm.Ctx, e fsm.Event) {
					c.Send("peer", types.NewMessage(types.MsgAttachRequest, types.ProtoGMM))
					panic("late")
				}},
		},
	}
	se := ForSpec(s)
	if len(se.Edges) != 1 {
		t.Fatalf("got %d edge summaries, want exactly 1", len(se.Edges))
	}
	e := se.Edges[0]
	if !e.Panicked {
		t.Error("Panicked not set")
	}
	if !e.GuardTrue() {
		t.Error("GuardTrue false: probe default 2 satisfies the guard")
	}
	if !reflect.DeepEqual(e.Reads, []string{"g.mode"}) {
		t.Errorf("Reads = %v, want the pre-panic guard read", e.Reads)
	}
	if len(e.Sends) != 1 || e.Sends[0].To != "peer" || e.Sends[0].Kind != types.MsgAttachRequest {
		t.Errorf("Sends = %v, want exactly one pre-panic send to peer", e.Sends)
	}
}

// TestForSpecNamespacedGlobals pins the namespace composition: probing
// a spec wrapped by fsm.NamespaceGlobals yields namespace-resolved
// effect sets, so MultiUEWorld's copies fall out of the analysis as
// independent with no special casing.
func TestForSpecNamespacedGlobals(t *testing.T) {
	base := writerSpec("g.shared")
	ns := fsm.NamespaceGlobals(base, "ue7")
	se := ForSpec(ns)
	if !reflect.DeepEqual(se.Writes, []string{"g.ue7.shared"}) {
		t.Errorf("namespaced Writes = %v, want [g.ue7.shared]", se.Writes)
	}
	// The base spec's own summary is unaffected (distinct spec, own
	// cache entry).
	if got := ForSpec(base).Writes; !reflect.DeepEqual(got, []string{"g.shared"}) {
		t.Errorf("base Writes = %v, want [g.shared]", got)
	}
	// Namespaced copies with distinct namespaces stay independent.
	w := mustWorld(t, model.Config{
		Globals: map[string]int{"g.ue7.shared": 0, "g.ue8.shared": 0},
		Procs: []model.ProcConfig{
			{Name: "u7", Spec: fsm.NamespaceGlobals(writerSpec("g.shared"), "ue7")},
			{Name: "u8", Spec: fsm.NamespaceGlobals(writerSpec("g.shared"), "ue8")},
		},
	})
	if got := Analyze(w).Clusters(); len(got) != 2 {
		t.Errorf("Clusters() = %v, want two clusters for disjoint namespaces", got)
	}
}

// TestOutputResolutionAndGraph pins output handling end to end: an
// Output-kind flow is resolved against the world's OutputTo wiring
// (flowsTouch + graph edges), and GraphEdges marks the flow handled
// only when the receiver's spec reacts to the kind.
func TestOutputResolutionAndGraph(t *testing.T) {
	outSpec := &fsm.Spec{
		Name: "upper", Init: "Idle", Proto: types.ProtoCM,
		Transitions: []fsm.Transition{
			{Name: "emit", From: "Idle", To: "Done", On: types.MsgUserDataOn,
				Action: func(c fsm.Ctx, e fsm.Event) {
					c.Output(types.NewMessage(types.MsgAttachRequest, types.ProtoGMM))
				}},
		},
	}
	w := mustWorld(t, model.Config{
		Procs: []model.ProcConfig{
			{Name: "up", Spec: outSpec, OutputTo: []string{"down", "deaf"}},
			{Name: "down", Spec: sinkSpec()},
			{Name: "deaf", Spec: writerSpec("g.x")},
		},
		Globals: map[string]int{"g.x": 0},
	})
	we := Analyze(w)

	if we.Independent(0, 0, 1, 0) {
		t.Error("output into down's inbox not seen by the relation")
	}
	if !we.Reachable(0, 1) {
		t.Error("Reachable(up, down) = false, want true")
	}
	if we.Reachable(1, 0) {
		t.Error("Reachable(down, up) = true, want false (flows are directed)")
	}

	var toDown, toDeaf *GraphEdge
	edges := we.GraphEdges()
	for i := range edges {
		switch {
		case edges[i].From == "up" && edges[i].To == "down":
			toDown = &edges[i]
		case edges[i].From == "up" && edges[i].To == "deaf":
			toDeaf = &edges[i]
		}
	}
	if toDown == nil || toDeaf == nil {
		t.Fatalf("GraphEdges() missing the output flows: %+v", edges)
	}
	if !toDown.Handled {
		t.Error("flow to down marked unhandled; sink handles AttachRequest")
	}
	if toDeaf.Handled {
		t.Error("flow to deaf marked handled; writer has no AttachRequest edge")
	}
	if !toDown.Output {
		t.Error("output flow lost its Output mark in the graph")
	}

	dot := we.GraphDOT()
	for _, frag := range []string{"digraph", "\"up\"", "\"down\""} {
		if !strings.Contains(dot, frag) {
			t.Errorf("GraphDOT() missing %q:\n%s", frag, dot)
		}
	}
}

// TestEdgeIDInterning pins the slab-coordinate contract the checker
// relies on: EdgeID is dense, per-process contiguous, and in world
// process order.
func TestEdgeIDInterning(t *testing.T) {
	two := &fsm.Spec{
		Name: "two", Init: "A",
		Transitions: []fsm.Transition{
			{Name: "t0", From: "A", To: "B", On: types.MsgUserDataOn},
			{Name: "t1", From: "B", To: "A", On: types.MsgUserDataOff},
		},
	}
	w := mustWorld(t, model.Config{
		Procs: []model.ProcConfig{
			{Name: "p0", Spec: two},
			{Name: "p1", Spec: sinkSpec()},
		},
	})
	we := Analyze(w)
	if we.NumEdges() != 3 {
		t.Fatalf("NumEdges() = %d, want 3", we.NumEdges())
	}
	ids := []int{we.EdgeID(0, 0), we.EdgeID(0, 1), we.EdgeID(1, 0)}
	if !reflect.DeepEqual(ids, []int{0, 1, 2}) {
		t.Errorf("EdgeID interning = %v, want dense [0 1 2]", ids)
	}
	if idx, ok := we.ProcIndex("p1"); !ok || idx != 1 {
		t.Errorf("ProcIndex(p1) = %d,%v want 1,true", idx, ok)
	}
}
