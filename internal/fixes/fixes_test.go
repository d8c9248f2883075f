package fixes

import (
	"testing"
	"time"

	"cnetverifier/internal/netemu"
	"cnetverifier/internal/radio"
	"cnetverifier/internal/types"
)

func msg(kind types.MsgKind) types.Message { return types.Message{Kind: kind} }

func TestReliableLosslessInOrder(t *testing.T) {
	sim := netemu.NewSim(1)
	var got []types.MsgKind
	p := NewReliablePair(sim, ReliableConfig{}, 10*time.Millisecond, 0, nil, nil,
		nil, func(m types.Message) { got = append(got, m.Kind) })
	_ = p
	kinds := []types.MsgKind{types.MsgAttachRequest, types.MsgAttachComplete, types.MsgTrackingAreaUpdateRequest}
	for _, k := range kinds {
		p.A.Send(msg(k))
	}
	sim.Run()
	if len(got) != len(kinds) {
		t.Fatalf("delivered %d, want %d", len(got), len(kinds))
	}
	for i, k := range kinds {
		if got[i] != k {
			t.Fatalf("got[%d] = %s, want %s", i, got[i], k)
		}
	}
	if p.A.InFlight() != 0 {
		t.Fatalf("inflight = %d after acks", p.A.InFlight())
	}
	if p.A.Retransmitted != 0 {
		t.Fatalf("retransmissions on lossless link: %d", p.A.Retransmitted)
	}
}

// The S2 root cause, repaired: every message survives a lossy link
// exactly once and in order — at 40% loss, and at 20% loss for every
// retransmission timeout from 50 to 800 ms (the shim's tuning knob:
// shorter timeouts only retransmit more often).
func TestReliableSurvivesLoss(t *testing.T) {
	for _, tc := range []struct {
		loss       float64
		rto, delay time.Duration
		maxRetries int
		seed, drop int64
	}{
		{0.4, 50 * time.Millisecond, 5 * time.Millisecond, 0, 2, 99},
		{0.2, 50 * time.Millisecond, 20 * time.Millisecond, 30, 1, 100},
		{0.2, 200 * time.Millisecond, 20 * time.Millisecond, 30, 1, 100},
		{0.2, 800 * time.Millisecond, 20 * time.Millisecond, 30, 1, 100},
	} {
		sim := netemu.NewSim(tc.seed)
		drop := radio.NewDropper(tc.loss, tc.drop)
		var got []uint32
		p := NewReliablePair(sim, ReliableConfig{RTO: tc.rto, MaxRetries: tc.maxRetries}, tc.delay, 0,
			drop.Drop, drop.Drop,
			nil, func(m types.Message) { got = append(got, m.Seq) })
		const n = 50
		for i := 0; i < n; i++ {
			p.A.Send(msg(types.MsgAttachComplete))
		}
		sim.Run()
		if len(got) != n {
			t.Fatalf("loss %v RTO %v: delivered %d, want %d (retx=%d failed=%d)",
				tc.loss, tc.rto, len(got), n, p.A.Retransmitted, p.A.Failed)
		}
		for i, seq := range got {
			if seq != uint32(i+1) {
				t.Fatalf("loss %v RTO %v: out of order at %d: seq %d", tc.loss, tc.rto, i, seq)
			}
		}
		if p.A.Retransmitted == 0 {
			t.Fatalf("loss %v RTO %v: lossy link should force retransmissions", tc.loss, tc.rto)
		}
		if p.A.Failed != 0 {
			t.Fatalf("loss %v RTO %v: failures = %d", tc.loss, tc.rto, p.A.Failed)
		}
	}
}

// Duplicate frames (the S2 duplicate-signal case) are suppressed.
func TestReliableDuplicateSuppression(t *testing.T) {
	sim := netemu.NewSim(3)
	delivered := 0
	e := NewReliableEndpoint("B", sim, ReliableConfig{}, func(types.Message) {}, func(types.Message) { delivered++ })
	frame := types.Message{Kind: types.MsgAttachRequest, Seq: 1}
	e.OnReceive(frame)
	e.OnReceive(frame) // duplicate
	e.OnReceive(frame) // duplicate
	if delivered != 1 {
		t.Fatalf("delivered %d, want 1", delivered)
	}
	if e.Duplicates != 2 {
		t.Fatalf("duplicates = %d, want 2", e.Duplicates)
	}
}

// Out-of-order frames (signals relayed via different BSes, §5.2.1) are
// buffered and released in sequence.
func TestReliableReordering(t *testing.T) {
	sim := netemu.NewSim(4)
	var got []uint32
	e := NewReliableEndpoint("B", sim, ReliableConfig{}, func(types.Message) {}, func(m types.Message) { got = append(got, m.Seq) })
	e.OnReceive(types.Message{Kind: types.MsgAttachRequest, Seq: 2})
	if len(got) != 0 {
		t.Fatal("premature delivery of out-of-order frame")
	}
	e.OnReceive(types.Message{Kind: types.MsgAttachRequest, Seq: 3})
	e.OnReceive(types.Message{Kind: types.MsgAttachRequest, Seq: 1})
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("delivery order = %v", got)
	}
	if e.Reordered != 2 {
		t.Fatalf("reordered = %d", e.Reordered)
	}
	// A duplicate of a buffered frame is also suppressed.
	e.OnReceive(types.Message{Kind: types.MsgAttachRequest, Seq: 5})
	e.OnReceive(types.Message{Kind: types.MsgAttachRequest, Seq: 5})
	if e.Duplicates != 1 {
		t.Fatalf("buffered duplicate not counted: %d", e.Duplicates)
	}
}

func TestReliableGivesUpAfterMaxRetries(t *testing.T) {
	sim := netemu.NewSim(5)
	e := NewReliableEndpoint("A", sim, ReliableConfig{RTO: 10 * time.Millisecond, MaxRetries: 3},
		func(types.Message) {}, // transmit into the void
		func(types.Message) {})
	e.Send(msg(types.MsgAttachRequest))
	sim.Run()
	if e.Failed != 1 {
		t.Fatalf("failed = %d, want 1", e.Failed)
	}
	if e.Retransmitted != 3 {
		t.Fatalf("retransmitted = %d, want 3", e.Retransmitted)
	}
	if e.InFlight() != 0 {
		t.Fatal("gave-up message still in flight")
	}
	if e.String() == "" {
		t.Fatal("empty string")
	}
}

func TestParallelSchedulerSerialBlocks(t *testing.T) {
	sim := netemu.NewSim(1)
	s := NewParallelScheduler(sim, false, 4300*time.Millisecond)
	s.SubmitUpdate(3 * time.Second)
	if !s.UpdateBusy() {
		t.Fatal("update should occupy the serial thread")
	}
	var delay time.Duration
	s.SubmitService(func(d time.Duration) { delay = d })
	sim.Run()
	// Serial: the request waits for update (3 s) + WAIT-NET-CMD tail
	// (4.3 s).
	want := 7300 * time.Millisecond
	if delay != want {
		t.Fatalf("delay = %v, want %v", delay, want)
	}
}

func TestParallelSchedulerParallelNoDelay(t *testing.T) {
	sim := netemu.NewSim(1)
	s := NewParallelScheduler(sim, true, 4300*time.Millisecond)
	s.SubmitUpdate(3 * time.Second)
	if s.UpdateBusy() {
		t.Fatal("parallel scheduler should not report busy")
	}
	var delay time.Duration = -1
	s.SubmitService(func(d time.Duration) { delay = d })
	sim.Run()
	if delay != 0 {
		t.Fatalf("delay = %v, want 0", delay)
	}
}

func TestParallelSchedulerIdleServes(t *testing.T) {
	sim := netemu.NewSim(1)
	s := NewParallelScheduler(sim, false, time.Second)
	var delay time.Duration = -1
	s.SubmitService(func(d time.Duration) { delay = d })
	sim.Run()
	if delay != 0 {
		t.Fatalf("idle serial delay = %v, want 0", delay)
	}
}

// Figure 13's shape: decoupling improves the data rate by roughly 1.6×
// while the voice rate stays serviceable.
func TestChannelPlanFigure13Shape(t *testing.T) {
	const load = 1.0
	coupled := NewChannelPlan(false)
	decoupled := NewChannelPlan(true)
	// §9.2 used a modest coupling overhead in the prototype.
	vC, dC := coupled.Rates(load, 0.2, false)
	vD, dD := decoupled.Rates(load, 0.2, false)
	if dD <= dC {
		t.Fatalf("decoupling did not improve data: %v vs %v", dD, dC)
	}
	gain := dD / dC
	if gain < 1.3 || gain > 3.0 {
		t.Fatalf("data gain = %.2f, want ≈1.6–2.4", gain)
	}
	if vD <= 0 || vC <= 0 {
		t.Fatal("voice starved")
	}
	// Voice remains on the robust modulation in both plans.
	if vD > radio.QAM16.PeakDL() || vC > radio.QAM16.PeakDL() {
		t.Fatal("voice exceeded its channel")
	}
	if coupled.String() == "" || decoupled.String() == "" {
		t.Fatal("empty plan strings")
	}
}

func TestChannelPlanUplink(t *testing.T) {
	p := NewChannelPlan(true)
	_, dUL := p.Rates(1, 0, true)
	if dUL != radio.QAM64.PeakUL() {
		t.Fatalf("uplink data = %v", dUL)
	}
}

// §9.3 remedy 1: with the fix the switch is fast and detach-free;
// without it the device detaches and pays the re-attach.
func TestMeasureSwitchNoPDP(t *testing.T) {
	signaling := 30 * time.Millisecond
	reattach := 800 * time.Millisecond

	fixed := MeasureSwitchNoPDP(true, 1, signaling, reattach)
	if fixed.Detached {
		t.Fatal("fixed switch detached the device")
	}
	if fixed.Latency <= 0 || fixed.Latency > 500*time.Millisecond {
		t.Fatalf("fixed latency = %v, want ≈0.1–0.4s", fixed.Latency)
	}

	broken := MeasureSwitchNoPDP(false, 1, signaling, reattach)
	if !broken.Detached {
		t.Fatal("defective switch did not detach")
	}
	if broken.Latency <= fixed.Latency {
		t.Fatalf("defective (%v) should be slower than fixed (%v)", broken.Latency, fixed.Latency)
	}
}

// §9.3 remedy 2: LU-failure recovery inside the core.
func TestRecoverLUFailure(t *testing.T) {
	attached, recovered := RecoverLUFailure(true, 1)
	if !attached || !recovered {
		t.Fatalf("fixed: attached=%v recovered=%v", attached, recovered)
	}
	attached, _ = RecoverLUFailure(false, 1)
	if attached {
		t.Fatal("defective path kept the device attached")
	}
}
