// Package ptest provides a small harness for unit-testing protocol
// specs in isolation: a recording fsm.Ctx with a global store, sent
// message log and trace log.
package ptest

import (
	"fmt"
	"testing"

	"cnetverifier/internal/fsm"
	"cnetverifier/internal/stats"
	"cnetverifier/internal/types"
)

// Ctx is a recording context for driving a single machine.
type Ctx struct {
	Globals map[string]int
	// Sent records Send calls in order; To is filled in.
	Sent []types.Message
	// Outputs records Output calls in order.
	Outputs []types.Message
	// Traces records Trace lines.
	Traces []string
}

// NewCtx returns an empty recording context.
func NewCtx() *Ctx {
	return &Ctx{Globals: make(map[string]int)}
}

// Get implements fsm.Ctx.
func (c *Ctx) Get(name string) int { return c.Globals[name] }

// Set implements fsm.Ctx.
func (c *Ctx) Set(name string, v int) { c.Globals[name] = v }

// GetI/SetI implement fsm.Ctx; indexed access is resolved by the
// machine wrapper before reaching the backend, so these are stubs.
func (c *Ctx) GetI(int32) int32  { return 0 }
func (c *Ctx) SetI(int32, int32) {}

// Send implements fsm.Ctx.
func (c *Ctx) Send(to string, msg types.Message) {
	msg.To = to
	c.Sent = append(c.Sent, msg)
}

// Output implements fsm.Ctx.
func (c *Ctx) Output(msg types.Message) { c.Outputs = append(c.Outputs, msg) }

// Trace implements fsm.Ctx.
func (c *Ctx) Trace(format string, args ...any) {
	c.Traces = append(c.Traces, fmt.Sprintf(format, args...))
}

// LastSent returns the most recent sent message, or a zero message.
func (c *Ctx) LastSent() types.Message {
	if len(c.Sent) == 0 {
		return types.Message{}
	}
	return c.Sent[len(c.Sent)-1]
}

// SentKinds returns the kinds of all sent messages in order.
func (c *Ctx) SentKinds() []types.MsgKind {
	out := make([]types.MsgKind, len(c.Sent))
	for i, m := range c.Sent {
		out[i] = m.Kind
	}
	return out
}

// OutputKinds returns the kinds of all output messages in order.
func (c *Ctx) OutputKinds() []types.MsgKind {
	out := make([]types.MsgKind, len(c.Outputs))
	for i, m := range c.Outputs {
		out[i] = m.Kind
	}
	return out
}

// MustStep fires an event and fails the test when no transition fires.
func MustStep(t *testing.T, m *fsm.Machine, c *Ctx, e fsm.Event) fsm.Transition {
	t.Helper()
	tr, ok := m.Step(c, e)
	if !ok {
		t.Fatalf("%s: no transition for %s in state %s", m.Name(), e, m.State())
	}
	return tr
}

// MustNotStep fires an event and fails the test when a transition fires.
func MustNotStep(t *testing.T, m *fsm.Machine, c *Ctx, e fsm.Event) {
	t.Helper()
	if tr, ok := m.Step(c, e); ok {
		t.Fatalf("%s: unexpected transition %q for %s in state %s", m.Name(), tr.Name, e, m.State())
	}
}

// WantState asserts the machine's control state.
func WantState(t *testing.T, m *fsm.Machine, want fsm.State) {
	t.Helper()
	if m.State() != want {
		t.Fatalf("%s: state = %s, want %s", m.Name(), m.State(), want)
	}
}

// WantGlobal asserts a global variable value.
func WantGlobal(t *testing.T, c *Ctx, name string, want int) {
	t.Helper()
	if got := c.Globals[name]; got != want {
		t.Fatalf("global %s = %d, want %d", name, got, want)
	}
}

// WantSent asserts that the i-th (0-based) sent message has the kind.
func WantSent(t *testing.T, c *Ctx, i int, kind types.MsgKind) {
	t.Helper()
	if i >= len(c.Sent) {
		t.Fatalf("only %d messages sent, want index %d (%s)", len(c.Sent), i, kind)
	}
	if c.Sent[i].Kind != kind {
		t.Fatalf("sent[%d] = %s, want %s", i, c.Sent[i].Kind, kind)
	}
}

// FromNet returns an event that looks like a network-delivered message
// (non-empty From).
func FromNet(kind types.MsgKind, from string) fsm.Event {
	m := types.Message{Kind: kind, From: from}
	return fsm.EvMsg(m)
}

// FromNetCause is FromNet with a cause attached.
func FromNetCause(kind types.MsgKind, from string, cause types.Cause) fsm.Event {
	m := types.Message{Kind: kind, From: from, Cause: cause}
	return fsm.EvMsg(m)
}

// EnvCause returns an environment event (empty From) with a cause.
func EnvCause(kind types.MsgKind, cause types.Cause) fsm.Event {
	return fsm.EvMsg(types.Message{Kind: kind, Cause: cause})
}

// Fuzz drives a machine with n random events drawn from the kinds the
// spec declares (plus a few stray kinds), asserting it never leaves its
// declared state set. It is the per-protocol robustness harness: NAS
// machines must discard unexpected signals, not corrupt themselves.
func Fuzz(t *testing.T, spec *fsm.Spec, n int, seed int64) {
	t.Helper()
	if err := spec.Validate(); err != nil {
		t.Fatalf("%s: %v", spec.Name, err)
	}
	declared := map[fsm.State]bool{}
	for _, st := range spec.States() {
		declared[st] = true
	}
	kinds := spec.Events()
	kinds = append(kinds, types.MsgNone, types.MsgRRCMeasurementReport, types.MsgContextTransfer)
	causes := []types.Cause{
		types.CauseNone, types.CauseRegularDeactivation, types.CauseQoSNotAccepted,
		types.CauseImplicitDetach, types.CauseNoEPSBearerContext, types.CauseNetworkFailure,
	}
	froms := []string{"", "peer", "net"}

	rng := stats.NewRand(seed)
	m := fsm.New(spec)
	c := NewCtx()
	// Random-but-plausible shared context.
	for i := 0; i < n; i++ {
		c.Set("g.sys", rng.Intn(3))
		c.Set("g.pdp", rng.Intn(2))
		c.Set("g.eps", rng.Intn(2))
		c.Set("g.reg4g", rng.Intn(2))
		c.Set("g.reg3gcs", rng.Intn(2))
		c.Set("g.psData", rng.Intn(2))
		c.Set("g.callActive", rng.Intn(2))
		c.Set("g.wantReturn4g", rng.Intn(2))
		c.Set("g.switchOpt", rng.Intn(3))
		msg := types.Message{
			Kind:  kinds[rng.Intn(len(kinds))],
			Cause: causes[rng.Intn(len(causes))],
			From:  froms[rng.Intn(len(froms))],
		}
		m.Step(c, fsm.EvMsg(msg))
		if !declared[m.State()] {
			t.Fatalf("%s: reached undeclared state %q after %d events", spec.Name, m.State(), i+1)
		}
	}
}
