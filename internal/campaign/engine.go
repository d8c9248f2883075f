package campaign

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"cnetverifier/internal/netemu"
	"cnetverifier/internal/radio"
	"cnetverifier/internal/stats"
	"cnetverifier/internal/userstudy"
	"cnetverifier/internal/workload"
)

// Proc enumerates the per-UE renewal processes a session runs.
type Proc int

const (
	// ProcAttach is a power-cycle / out-of-service recovery: the device
	// re-attaches (S2 exposure).
	ProcAttach Proc = iota
	// ProcDetach is a UE-initiated detach (airplane mode, power off).
	ProcDetach
	// ProcService is an idle-to-connected service request — the
	// dominant control-plane procedure at population scale.
	ProcService
	// ProcHandover is a mobility update: TAU (4G) or RAU (3G), with a
	// configurable fraction of 4G updates being 4G↔3G inter-system
	// switches (S1 exposure).
	ProcHandover
	// ProcCall is a voice call: CSFB for 4G sessions (S1/S3/S6
	// exposure), a plain CS call for 3G sessions (S4/S5 exposure).
	ProcCall
	numProcs
)

// procName names the processes in CSV/flag order.
var procNames = [numProcs]string{"attach", "detach", "service", "handover", "call"}

// Arrivals configures the per-procedure inter-arrival distributions.
type Arrivals struct {
	Attach, Detach, Service, Handover, Call Dist
}

// DefaultArrivals returns inter-arrival processes calibrated to the §7
// cohort volumes (attach/detach/call) and the control-plane traffic
// study's shapes for the high-rate procedures: log-normal
// service-request inter-arrivals (heavy-tailed diurnal bursts) and
// exponential mobility updates.
func DefaultArrivals() Arrivals {
	return Arrivals{
		// §7: 30 attaches over 20 users × 14 days → mean ≈806400 s.
		Attach: Exp{MeanSec: 806400},
		// ≈1/day: airplane mode or power-off.
		Detach: Exp{MeanSec: 86400},
		// Log-normal, mean ≈600 s (exp(5.897 + 1/2) ≈ 600).
		Service: LogNormal{Mu: 5.897, Sigma: 1.0},
		// ≈2 mobility updates/hour.
		Handover: Exp{MeanSec: 1800},
		// §7: ≈1.2 calls/user/day → mean ≈72000 s.
		Call: Exp{MeanSec: 72000},
	}
}

// Config parameterizes a campaign. The zero value is completed by
// withDefaults; every field participates in the report's params block,
// so two reports are comparable only when their params match.
type Config struct {
	// UEs is the population size (default 10000).
	UEs int
	// Frac4G is the fraction of 4G-capable UEs (§7 cohort: 12 of 20).
	Frac4G float64
	// Horizon is the simulated span (default 1h).
	Horizon time.Duration
	// Tick is the timer-wheel resolution (default 100ms).
	Tick time.Duration
	// Bucket is the load-accounting resolution (default 1s); must be a
	// multiple of Tick.
	Bucket time.Duration
	// Arrivals are the per-procedure inter-arrival processes.
	Arrivals Arrivals
	// PInterSystem is the probability a 4G mobility update is a 4G↔3G
	// inter-system switch rather than a TAU (§7: ≈56 of 436 switches
	// were not CSFB-caused).
	PInterSystem float64
	// Study supplies the S1–S6 mechanism trigger probabilities
	// (default userstudy.DefaultConfig).
	Study userstudy.Config
	// Costs maps procedures to per-element message counts.
	Costs netemu.SignalingCosts
	// Capacity is the per-element service rate (msgs/sec) for the
	// utilization and queue model.
	Capacity netemu.ElementCapacity
	// Workers bounds concurrency (default 1). Any worker count produces
	// the identical report: workers claim whole shards from an atomic
	// cursor and never share accumulators.
	Workers int
	// Seed is the campaign seed (default 1).
	Seed int64
	// ShardSize is the UE partition granularity (default 4096). It is
	// part of the report's identity: changing it re-deals the per-shard
	// generators.
	ShardSize int
}

func (c Config) withDefaults() (Config, error) {
	if c.UEs == 0 {
		c.UEs = 10000
	}
	if c.UEs < 0 {
		return c, fmt.Errorf("campaign: UEs = %d", c.UEs)
	}
	if c.Frac4G == 0 {
		c.Frac4G = 12.0 / 20
	}
	if c.Frac4G < 0 || c.Frac4G > 1 {
		return c, fmt.Errorf("campaign: Frac4G = %v out of [0,1]", c.Frac4G)
	}
	if c.Horizon == 0 {
		c.Horizon = time.Hour
	}
	if c.Tick == 0 {
		c.Tick = 100 * time.Millisecond
	}
	if c.Bucket == 0 {
		c.Bucket = time.Second
	}
	if c.Horizon < 0 || c.Tick <= 0 || c.Bucket <= 0 {
		return c, fmt.Errorf("campaign: non-positive horizon/tick/bucket")
	}
	if c.Bucket%c.Tick != 0 {
		return c, fmt.Errorf("campaign: bucket %v not a multiple of tick %v", c.Bucket, c.Tick)
	}
	if ticks := int64(c.Horizon / c.Tick); ticks > math.MaxInt32 {
		return c, fmt.Errorf("campaign: horizon %v at tick %v exceeds 2^31 ticks", c.Horizon, c.Tick)
	}
	if (c.Arrivals == Arrivals{}) {
		c.Arrivals = DefaultArrivals()
	}
	for _, d := range []struct {
		name string
		d    Dist
	}{
		{"attach", c.Arrivals.Attach}, {"detach", c.Arrivals.Detach},
		{"service", c.Arrivals.Service}, {"handover", c.Arrivals.Handover},
		{"call", c.Arrivals.Call},
	} {
		if d.d == nil {
			return c, fmt.Errorf("campaign: missing %s inter-arrival distribution", d.name)
		}
	}
	if c.PInterSystem == 0 {
		c.PInterSystem = 0.15
	}
	if c.PInterSystem < 0 || c.PInterSystem > 1 {
		return c, fmt.Errorf("campaign: PInterSystem = %v out of [0,1]", c.PInterSystem)
	}
	if (c.Study == userstudy.Config{}) {
		c.Study = userstudy.DefaultConfig()
	}
	if (c.Costs == netemu.SignalingCosts{}) {
		c.Costs = netemu.DefaultSignalingCosts()
	}
	if (c.Capacity == netemu.ElementCapacity{}) {
		c.Capacity = netemu.DefaultElementCapacity()
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.ShardSize <= 0 {
		c.ShardSize = 4096
	}
	return c, nil
}

// session is one lightweight UE: its per-procedure due ticks and a
// flag byte. At 10^6 UEs the array stays a few tens of MB.
type session struct {
	next  [numProcs]int32 // due tick per procedure
	flags uint8
}

const (
	fIs4G = 1 << iota
	fOPII
	fRegistered
)

// tally indexes the S1–S6 occurrence accumulators.
const numFindings = 6

// shardAcc is one shard's private accumulator; shards are merged in
// index order after the workers drain.
type shardAcc struct {
	procs      [numProcs]int64 // occurrences that actually executed
	csfbCalls  int64           // subset of procs[ProcCall] on 4G UEs
	switches   int64           // inter-system switches (CSFB + mobility)
	events     [numFindings]int64
	exposure   [numFindings]int64
	affectedKB float64
	msgs       int64
	load       [netemu.NumElements][]int64 // per-bucket message arrivals
}

// shardSeed derives a shard's generator seed from everything that
// identifies it — never from scheduling.
func shardSeed(seed int64, shard int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "campaign|%d|%d", seed, shard)
	return int64(h.Sum64() & math.MaxInt64)
}

// Run executes the campaign and aggregates the report. The report is a
// pure function of the Config: any worker count yields byte-identical
// renderings.
func Run(cfg Config) (*Report, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	horizonTicks := int32(cfg.Horizon / cfg.Tick)
	ticksPerBucket := int32(cfg.Bucket / cfg.Tick)
	nBuckets := int(horizonTicks+ticksPerBucket-1) / int(ticksPerBucket)
	if nBuckets == 0 {
		nBuckets = 1
	}
	nShards := (cfg.UEs + cfg.ShardSize - 1) / cfg.ShardSize

	accs := make([]shardAcc, nShards)
	var cursor atomic.Int64
	workers := cfg.Workers
	if workers > nShards {
		workers = nShards
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				s := int(cursor.Add(1)) - 1
				if s >= nShards {
					return
				}
				lo := s * cfg.ShardSize
				hi := lo + cfg.ShardSize
				if hi > cfg.UEs {
					hi = cfg.UEs
				}
				simShard(cfg, s, hi-lo, horizonTicks, ticksPerBucket, nBuckets, &accs[s])
			}
		}()
	}
	wg.Wait()

	return buildReport(cfg, accs, nBuckets), nil
}

// simShard simulates one shard of UEs to the horizon. Everything it
// touches is shard-private; the only shared input is the Config.
func simShard(cfg Config, shard, n int, horizonTicks, ticksPerBucket int32, nBuckets int, acc *shardAcc) {
	rng := stats.NewRand(shardSeed(cfg.Seed, shard))
	for e := range acc.load {
		acc.load[e] = make([]int64, nBuckets)
	}
	sessions := make([]session, n)
	wh := newWheel()
	tickSec := cfg.Tick.Seconds()

	// The S5 affected-volume accounting shares the §7 per-call model:
	// the degraded bulk rate comes from the OP-II shared channel with
	// the call active (the configuration the study measured).
	s5 := workload.DefaultS5CallModel()
	ch := netemu.SharedChannelFor(netemu.OPII(), netemu.FixSet{}, false)
	ch.CallActive = true

	dists := [numProcs]Dist{
		ProcAttach:   cfg.Arrivals.Attach,
		ProcDetach:   cfg.Arrivals.Detach,
		ProcService:  cfg.Arrivals.Service,
		ProcHandover: cfg.Arrivals.Handover,
		ProcCall:     cfg.Arrivals.Call,
	}
	sampleGap := func(p Proc) int32 {
		sec := dists[p].Sample(rng)
		t := int64(sec / tickSec)
		if t < 1 {
			t = 1
		}
		if t > math.MaxInt32/2 {
			t = math.MaxInt32 / 2
		}
		return int32(t)
	}

	// Initialize: class draws, first arrivals, one wheel entry per UE.
	for i := range sessions {
		s := &sessions[i]
		s.flags = fRegistered // the §7 cohort starts attached
		if rng.Float64() < cfg.Frac4G {
			s.flags |= fIs4G
			if rng.Float64() < cfg.Study.POPIIUser {
				s.flags |= fOPII
			}
		}
		min := int32(math.MaxInt32)
		for p := Proc(0); p < numProcs; p++ {
			s.next[p] = sampleGap(p)
			if s.next[p] < min {
				min = s.next[p]
			}
		}
		if min < horizonTicks || min <= wheelSpan {
			wh.schedule(int32(i), min)
		}
	}

	emit := func(c netemu.ProcedureCost, bucket int32) {
		for e := 0; e < int(netemu.NumElements); e++ {
			if c[e] != 0 {
				acc.load[e][bucket] += int64(c[e])
				acc.msgs += int64(c[e])
			}
		}
	}

	for tick := int32(0); tick < horizonTicks; tick++ {
		batch := wh.advance(tick)
		if len(batch) == 0 {
			continue
		}
		bucket := tick / ticksPerBucket
		for _, te := range batch {
			s := &sessions[te.idx]
			min := int32(math.MaxInt32)
			for p := Proc(0); p < numProcs; p++ {
				if s.next[p] != tick {
					if s.next[p] < min {
						min = s.next[p]
					}
					continue
				}
				fireProc(cfg, p, s, rng, acc, bucket, emit, s5, ch)
				s.next[p] = tick + sampleGap(p)
				if s.next[p] < min {
					min = s.next[p]
				}
			}
			wh.schedule(te.idx, min)
		}
	}
}

// fireProc executes one procedure occurrence: state transition,
// signaling emission, and mechanism tallies. Draw order is fixed and
// documented by the userstudy samplers.
func fireProc(cfg Config, p Proc, s *session, rng *rand.Rand, acc *shardAcc,
	bucket int32, emit func(netemu.ProcedureCost, int32), s5 workload.S5CallModel, ch *radio.SharedChannel) {
	registered := s.flags&fRegistered != 0
	is4G := s.flags&fIs4G != 0
	switch p {
	case ProcAttach:
		// A restart re-attaches whether or not the session was
		// registered (§7's attaches are restarts and out-of-service
		// recoveries).
		acc.procs[ProcAttach]++
		emit(cfg.Costs.Attach, bucket)
		acc.exposure[1]++ // S2
		if cfg.Study.SampleAttach(rng) {
			acc.events[1]++
		}
		s.flags |= fRegistered
	case ProcDetach:
		if !registered {
			return
		}
		acc.procs[ProcDetach]++
		emit(cfg.Costs.Detach, bucket)
		s.flags &^= fRegistered
	case ProcService:
		if !registered {
			return
		}
		acc.procs[ProcService]++
		emit(cfg.Costs.ServiceRequest, bucket)
	case ProcHandover:
		if !registered {
			return
		}
		acc.procs[ProcHandover]++
		if !is4G {
			emit(cfg.Costs.RAU, bucket)
			return
		}
		if rng.Float64() < cfg.PInterSystem {
			acc.switches++
			emit(cfg.Costs.InterSystemSwitch, bucket)
			if sw := cfg.Study.SampleSwitch(rng); sw.DataOn {
				acc.exposure[0]++ // S1
				if sw.S1 {
					acc.events[0]++
				}
			}
			return
		}
		emit(cfg.Costs.TAU, bucket)
	case ProcCall:
		if !registered {
			return
		}
		acc.procs[ProcCall]++
		if is4G {
			acc.csfbCalls++
			acc.switches += 2 // fall to 3G and return
			emit(cfg.Costs.CSFBCall, bucket)
			out := cfg.Study.SampleCSFBCall(rng, s.flags&fOPII != 0)
			if out.S1Exposed {
				acc.exposure[0]++
				if out.S1 {
					acc.events[0]++
				}
			}
			if out.S3Exposed {
				acc.exposure[2]++
				if out.S3 {
					acc.events[2]++
				}
			}
			acc.exposure[5]++ // S6
			if out.S6 {
				acc.events[5]++
			}
			return
		}
		emit(cfg.Costs.CSCall, bucket)
		out := cfg.Study.SampleCSCall3G(rng)
		acc.exposure[4]++ // S5
		if out.S5 {
			acc.events[4]++
			_, kb := s5.SampleAffected(rng, ch.DataRateDL)
			acc.affectedKB += kb
		}
		if out.S4Exposed {
			acc.exposure[3]++
			if out.S4 {
				acc.events[3]++
			}
		}
	}
}
