package lint

import (
	"sort"

	"cnetverifier/internal/fsm"
	"cnetverifier/internal/types"
)

// Guards and actions are opaque Go closures, so the message-flow and
// variable passes cannot inspect them syntactically. Instead they are
// probed: each transition's guard and action runs against a recording
// fsm.Ctx under a small family of constant variable assignments, and the
// recorder logs every Get/Set/Send/Output. Facts gathered this way are
// existential ("under some probe this action sends AttachAccept to
// mme.emm"), so the passes use them conservatively — a branch no probe
// reaches is missed, never invented.

// probeDefaults are the constant values every variable takes during one
// probe run. The set covers the small enums that guards compare against
// (types.System 0/1/2, names.Switch* 0/1/2, booleans) plus the
// modulation orders of S5 (16QAM/64QAM).
var probeDefaults = []int{0, 1, 2, 3, 16, 64}

// sendFact is one recorded Ctx.Send.
type sendFact struct {
	To   string
	Kind types.MsgKind
}

// transFacts are the recorded effects of one transition.
type transFacts struct {
	// Reads/Writes are variable accesses, including "g."-prefixed
	// globals; separation happens at the consumer.
	Reads, Writes map[string]bool
	// Sends lists recorded Ctx.Send calls.
	Sends []sendFact
	// Outputs lists kinds passed to Ctx.Output.
	Outputs []types.MsgKind
	// GuardTrue holds the probe defaults under which the guard returned
	// true (all probes, for an unguarded transition).
	GuardTrue []int
	// Panicked is set when the guard or action panicked under at least
	// one probe (the probe context cannot satisfy every invariant the
	// closure assumes; remaining probes still ran).
	Panicked bool
}

// specFacts aggregate probe results over a whole spec.
type specFacts struct {
	Spec *fsm.Spec
	// PerTransition is indexed like Spec.Transitions.
	PerTransition []*transFacts
	// Reads/Writes union the per-transition accesses.
	Reads, Writes map[string]bool
	// Sends/Outputs union the per-transition effects (deduplicated).
	Sends   []sendFact
	Outputs []types.MsgKind
}

// recorder is the probing fsm.Ctx. Get returns the probe default unless
// an earlier Set in the same run assigned the name.
type recorder struct {
	def    int
	vals   map[string]int
	reads  map[string]bool
	writes map[string]bool
	sends  []sendFact
	outs   []types.MsgKind
}

func newRecorder(def int) *recorder {
	return &recorder{
		def:    def,
		vals:   make(map[string]int),
		reads:  make(map[string]bool),
		writes: make(map[string]bool),
	}
}

func (r *recorder) Get(name string) int {
	r.reads[name] = true
	if v, ok := r.vals[name]; ok {
		return v
	}
	return r.def
}

func (r *recorder) Set(name string, v int) {
	r.writes[name] = true
	r.vals[name] = v
}

// GetI/SetI are only resolved by the machine wrapper; probes drive the
// closures through a bare recorder, so return the probe default and
// drop writes (slot names are unknown here).
func (r *recorder) GetI(int32) int32  { return int32(r.def) }
func (r *recorder) SetI(int32, int32) {}

func (r *recorder) Send(to string, msg types.Message) {
	r.sends = append(r.sends, sendFact{To: to, Kind: msg.Kind})
}

func (r *recorder) Output(msg types.Message) {
	r.outs = append(r.outs, msg.Kind)
}

func (r *recorder) Trace(string, ...any) {}

// safely runs f, converting a panic into ok=false.
func safely(f func()) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	f()
	return true
}

// probeTransition runs one transition's guard and action under every
// probe default. The action runs regardless of the guard verdict: the
// guard only decides when the transition fires, not what it does, and
// the message-flow passes need the action's effects even when no
// constant assignment satisfies the guard.
func probeTransition(t fsm.Transition) *transFacts {
	tf := &transFacts{Reads: make(map[string]bool), Writes: make(map[string]bool)}
	ev := fsm.Ev(t.On)
	for _, def := range probeDefaults {
		guardOK := true
		if t.Guard != nil {
			rec := newRecorder(def)
			ran := safely(func() { guardOK = t.Guard(rec, ev) })
			if !ran {
				tf.Panicked = true
				guardOK = false
			}
			mergeAccess(tf, rec)
		}
		if guardOK {
			tf.GuardTrue = append(tf.GuardTrue, def)
		}
		if t.Action != nil {
			rec := newRecorder(def)
			if !safely(func() { t.Action(rec, ev) }) {
				tf.Panicked = true
			}
			mergeAccess(tf, rec)
			for _, s := range rec.sends {
				tf.Sends = append(tf.Sends, s)
			}
			tf.Outputs = append(tf.Outputs, rec.outs...)
		}
	}
	tf.Sends = dedupSends(tf.Sends)
	tf.Outputs = dedupKinds(tf.Outputs)
	return tf
}

func mergeAccess(tf *transFacts, rec *recorder) {
	for k := range rec.reads {
		tf.Reads[k] = true
	}
	for k := range rec.writes {
		tf.Writes[k] = true
	}
}

type specFactsKey struct{}

// probeSpec probes every transition of the spec, memoized on the spec
// itself. Specs are immutable once built (the same contract the fsm
// layout relies on), probing is a pure function of the spec, and no
// consumer mutates the returned facts — so a screening campaign that
// lints the same world before every run probes each spec once.
func probeSpec(s *fsm.Spec) *specFacts {
	return s.Derived(specFactsKey{}, func() any { return buildSpecFacts(s) }).(*specFacts)
}

func buildSpecFacts(s *fsm.Spec) *specFacts {
	sf := &specFacts{
		Spec:          s,
		PerTransition: make([]*transFacts, len(s.Transitions)),
		Reads:         make(map[string]bool),
		Writes:        make(map[string]bool),
	}
	for i, t := range s.Transitions {
		tf := probeTransition(t)
		sf.PerTransition[i] = tf
		for k := range tf.Reads {
			sf.Reads[k] = true
		}
		for k := range tf.Writes {
			sf.Writes[k] = true
		}
		sf.Sends = append(sf.Sends, tf.Sends...)
		sf.Outputs = append(sf.Outputs, tf.Outputs...)
	}
	sf.Sends = dedupSends(sf.Sends)
	sf.Outputs = dedupKinds(sf.Outputs)
	return sf
}

func dedupSends(in []sendFact) []sendFact {
	seen := make(map[sendFact]bool, len(in))
	out := in[:0]
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].To != out[j].To {
			return out[i].To < out[j].To
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

func dedupKinds(in []types.MsgKind) []types.MsgKind {
	seen := make(map[types.MsgKind]bool, len(in))
	out := in[:0]
	for _, k := range in {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// isGlobalName mirrors the fsm engine's scoping rule: names with the
// "g." prefix resolve to world globals.
func isGlobalName(name string) bool {
	return len(name) > 2 && name[0] == 'g' && name[1] == '.'
}

func sortedNames(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
