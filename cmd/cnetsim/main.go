// Command cnetsim runs the §9 control-plane prototype over real
// sockets: a core network (TCP), a base station relaying between UDP
// (the emulated unreliable RRC air interface) and TCP, and a
// programmable device. Each role runs as its own process, mirroring
// the paper's three-machine prototype; -role all wires all three in
// one process for a quick demonstration.
//
// Usage:
//
//	cnetsim -role core  [-listen 127.0.0.1:7801] [-shim]
//	cnetsim -role bs    [-listen 127.0.0.1:7802] [-core 127.0.0.1:7801] [-drop 0.05] [-seed 1]
//	cnetsim -role device [-bs 127.0.0.1:7802] [-shim] [-taus 3]
//	cnetsim -role all   [-drop 0.05] [-shim] [-taus 3]
//
// With -sweep it instead runs a loss-sweep validation campaign on the
// in-process emulator (no sockets): each screened S1–S6 counterexample
// is replayed across a grid of air-interface loss rates and seeds, with
// the NAS retransmission layer keeping lossy runs terminating.
//
//	cnetsim -sweep [-loss 0:0.5:0.05] [-seeds 32] [-workers N]
//	        [-findings S1,S4] [-profile OP-II] [-fixes reliable,parallel]
//	        [-noreliab] [-format table|json|csv] [-seed 1]
//
// With -campaign it runs the population-scale control-plane load
// engine: 10^5–10^6 lightweight UE sessions drawing per-procedure
// inter-arrivals, reporting core-element signaling load and the S1–S6
// occurrence table at population scale. The report is byte-identical
// at any -workers value.
//
//	cnetsim -campaign [-ues 100000] [-frac4g 0.6] [-horizon 1h]
//	        [-workers N] [-seed 1] [-shard 4096]
//	        [-attach exp:806400] [-detach exp:86400] [-service lognormal:5.897,1]
//	        [-handover exp:1800] [-call exp:72000]
//	        [-format table|json|csv] [-series FILE]
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"time"

	"cnetverifier/internal/campaign"
	"cnetverifier/internal/core"
	"cnetverifier/internal/emu"
	"cnetverifier/internal/netemu"
	"cnetverifier/internal/validate"
)

func main() {
	var (
		role   = flag.String("role", "all", "core, bs, device, or all")
		listen = flag.String("listen", "", "listen address (core: TCP, bs: UDP)")
		coreAt = flag.String("core", "127.0.0.1:7801", "core TCP address (bs role)")
		bsAt   = flag.String("bs", "127.0.0.1:7802", "BS UDP address (device role)")
		drop   = flag.Float64("drop", 0, "air-interface drop rate (bs role)")
		seed   = flag.Int64("seed", 1, "dropper seed (socket roles) / base trial seed (-sweep)")
		shim   = flag.Bool("shim", false, "enable the §8 reliable-transfer shim")
		taus   = flag.Int("taus", 3, "tracking-area updates after attach (device role)")

		sweep    = flag.Bool("sweep", false, "run a loss-sweep validation campaign instead of a socket role")
		loss     = flag.String("loss", "0:0.5:0.1", "loss grid: start:end:step or comma list (sweep)")
		seeds    = flag.Int("seeds", 8, "trials per (finding, loss) cell (sweep)")
		workers  = flag.Int("workers", runtime.NumCPU(), "concurrent emulator runs (sweep)")
		findings = flag.String("findings", "", "comma-separated subset of S1..S6; empty = all (sweep)")
		profile  = flag.String("profile", "OP-II", "operator profile: OP-I or OP-II (sweep)")
		fixesF   = flag.String("fixes", "", "§8 fixes: comma list of reliable,parallel,decouple,crosssys or 'all' (sweep)")
		noReliab = flag.Bool("noreliab", false, "disable the NAS retransmission layer (sweep)")
		format   = flag.String("format", "table", "sweep/campaign output: table, json, or csv")

		campaignF = flag.Bool("campaign", false, "run a population-scale load campaign instead of a socket role")
		ues       = flag.Int("ues", 100000, "population size (campaign)")
		frac4G    = flag.Float64("frac4g", 12.0/20, "fraction of 4G-capable UEs (campaign)")
		horizon   = flag.Duration("horizon", time.Hour, "simulated span (campaign)")
		shard     = flag.Int("shard", 4096, "UE shard size; part of the report identity (campaign)")
		attachD   = flag.String("attach", "", "attach inter-arrival dist, e.g. exp:806400 (campaign)")
		detachD   = flag.String("detach", "", "detach inter-arrival dist (campaign)")
		serviceD  = flag.String("service", "", "service-request inter-arrival dist (campaign)")
		handoverD = flag.String("handover", "", "mobility-update inter-arrival dist (campaign)")
		callD     = flag.String("call", "", "voice-call inter-arrival dist (campaign)")
		seriesF   = flag.String("series", "", "write the per-bucket element-load series CSV to FILE (campaign)")
	)
	flag.Parse()

	if *sweep {
		runSweep(*loss, *seeds, *workers, *findings, *profile, *fixesF, *noReliab, *format, *seed)
		return
	}
	if *campaignF {
		runCampaign(*ues, *frac4G, *horizon, *workers, *seed, *shard,
			[5]string{*attachD, *detachD, *serviceD, *handoverD, *callD}, *format, *seriesF)
		return
	}

	switch *role {
	case "core":
		addr := orDefault(*listen, "127.0.0.1:7801")
		core, err := emu.NewCore(addr, *shim)
		fatal(err)
		defer core.Close()
		fmt.Println("core listening on", core.Addr())
		waitInterrupt()

	case "bs":
		addr := orDefault(*listen, "127.0.0.1:7802")
		bs, err := emu.NewBS(addr, *coreAt, *drop, *seed)
		fatal(err)
		defer bs.Close()
		fmt.Printf("bs relaying %s (udp, drop %.1f%%) <-> %s (tcp)\n", bs.Addr(), *drop*100, *coreAt)
		waitInterrupt()
		fmt.Printf("relayed %d frames, dropped %d\n", bs.Relayed(), bs.Dropped())

	case "device":
		runDevice(*bsAt, *shim, *taus)

	case "all":
		core, err := emu.NewCore("127.0.0.1:0", *shim)
		fatal(err)
		defer core.Close()
		bs, err := emu.NewBS("127.0.0.1:0", core.Addr(), *drop, *seed)
		fatal(err)
		defer bs.Close()
		fmt.Printf("core %s, bs %s (drop %.1f%%, shim %v)\n", core.Addr(), bs.Addr(), *drop*100, *shim)
		runDevice(bs.Addr(), *shim, *taus)
		fmt.Printf("bs relayed %d frames, dropped %d\n", bs.Relayed(), bs.Dropped())

	default:
		fmt.Fprintf(os.Stderr, "cnetsim: unknown role %q\n", *role)
		os.Exit(1)
	}
}

func runDevice(bsAddr string, shim bool, taus int) {
	dev, err := emu.NewDevice(bsAddr, shim)
	fatal(err)
	defer dev.Close()

	fmt.Println("device: powering on (4G attach)...")
	start := time.Now()
	dev.PowerOn()
	if !dev.WaitRegistered(10*time.Second, 200*time.Millisecond) {
		fmt.Println("device: attach FAILED (out of service)")
		os.Exit(2)
	}
	fmt.Printf("device: registered in %v\n", time.Since(start).Round(time.Millisecond))

	for i := 1; i <= taus; i++ {
		dev.TAU()
		time.Sleep(300 * time.Millisecond)
		if dev.Detached() {
			fmt.Printf("device: DETACHED after TAU %d (S2 reproduced)\n", i)
			os.Exit(2)
		}
		fmt.Printf("device: TAU %d ok, still registered\n", i)
	}
	fmt.Println("device: done")
}

// runSweep parses the sweep flags and runs the campaign.
func runSweep(lossSpec string, seeds, workers int, findingsSpec, profileName, fixesSpec string, noReliab bool, format string, seed int64) {
	rates, err := parseLossGrid(lossSpec)
	fatal(err)
	ids, err := parseFindings(findingsSpec)
	fatal(err)
	prof, err := parseProfile(profileName)
	fatal(err)
	fixes, err := parseFixes(fixesSpec)
	fatal(err)

	res, err := validate.Sweep(validate.SweepConfig{
		Findings:      ids,
		LossRates:     rates,
		Seeds:         seeds,
		Workers:       workers,
		Profile:       prof,
		Fixes:         fixes,
		NoReliability: noReliab,
		Seed:          seed,
	})
	fatal(err)

	switch format {
	case "table":
		fmt.Print(res.Table())
	case "json":
		b, err := res.JSON()
		fatal(err)
		fmt.Println(string(b))
	case "csv":
		fmt.Print(res.CSV())
	default:
		fatal(fmt.Errorf("unknown -format %q (want table, json, or csv)", format))
	}
}

// runCampaign parses the campaign flags and runs the load engine.
func runCampaign(ues int, frac4G float64, horizon time.Duration, workers int, seed int64, shard int, dists [5]string, format, seriesFile string) {
	cfg := campaign.Config{
		UEs:       ues,
		Frac4G:    frac4G,
		Horizon:   horizon,
		Workers:   workers,
		Seed:      seed,
		ShardSize: shard,
		Arrivals:  campaign.DefaultArrivals(),
	}
	for i, dst := range []*campaign.Dist{
		&cfg.Arrivals.Attach, &cfg.Arrivals.Detach, &cfg.Arrivals.Service,
		&cfg.Arrivals.Handover, &cfg.Arrivals.Call,
	} {
		if dists[i] == "" {
			continue
		}
		d, err := campaign.ParseDist(dists[i])
		fatal(err)
		*dst = d
	}
	rep, err := campaign.Run(cfg)
	fatal(err)

	switch format {
	case "table":
		fmt.Print(rep.Table())
	case "json":
		fmt.Print(rep.JSON())
	case "csv":
		fmt.Print(rep.CSV())
	default:
		fatal(fmt.Errorf("unknown -format %q (want table, json, or csv)", format))
	}
	if seriesFile != "" {
		f, err := os.Create(seriesFile)
		fatal(err)
		err = rep.WriteSeriesCSV(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		fatal(err)
	}
}

// maxLossPoints bounds a -loss grid: each point costs a full sweep of
// replays, and the bound stops a mistyped step from allocating a grid
// of a billion points before anything runs.
const maxLossPoints = 1000

// parseLossGrid accepts "start:end:step" or a comma-separated list of
// finite rates in [0,1), at most maxLossPoints of them.
func parseLossGrid(spec string) ([]float64, error) {
	if spec == "" {
		return nil, nil
	}
	bad := func() error {
		return fmt.Errorf("bad -loss %q (want start:end:step or a comma list in [0,1), at most %d points)", spec, maxLossPoints)
	}
	parse := func(p string) (float64, bool) {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		return f, err == nil && !math.IsNaN(f) && !math.IsInf(f, 0)
	}
	if strings.Contains(spec, ":") {
		parts := strings.Split(spec, ":")
		if len(parts) != 3 {
			return nil, bad()
		}
		var v [3]float64
		for i, p := range parts {
			f, ok := parse(p)
			if !ok {
				return nil, bad()
			}
			v[i] = f
		}
		start, end, step := v[0], v[1], v[2]
		if step <= 0 || start < 0 || end < start || end >= 1 {
			return nil, bad()
		}
		// Points start+i*step up to end, with a micro-step of slack so
		// a grid like 0:0.3:0.1 keeps its end point.
		n := math.Floor((end-start)/step+1e-6) + 1
		if n > maxLossPoints {
			return nil, bad()
		}
		out := make([]float64, int(n))
		for i := range out {
			// Round to micro precision so 0.1+0.1+0.1 style error never
			// produces a stray 0.30000000000000004 grid point.
			out[i] = math.Round((start+float64(i)*step)*1e6) / 1e6
		}
		return out, nil
	}
	parts := strings.Split(spec, ",")
	if len(parts) > maxLossPoints {
		return nil, bad()
	}
	var out []float64
	for _, p := range parts {
		f, ok := parse(p)
		if !ok || f < 0 || f >= 1 {
			return nil, bad()
		}
		out = append(out, math.Round(f*1e6)/1e6)
	}
	return out, nil
}

func parseFindings(spec string) ([]core.FindingID, error) {
	if spec == "" {
		return nil, nil
	}
	known := map[string]core.FindingID{
		"S1": core.S1, "S2": core.S2, "S3": core.S3,
		"S4": core.S4, "S5": core.S5, "S6": core.S6,
	}
	var out []core.FindingID
	for _, p := range strings.Split(spec, ",") {
		id, ok := known[strings.ToUpper(strings.TrimSpace(p))]
		if !ok {
			return nil, fmt.Errorf("unknown finding %q (want S1..S6)", p)
		}
		out = append(out, id)
	}
	return out, nil
}

func parseProfile(name string) (*netemu.OperatorProfile, error) {
	for _, p := range netemu.Operators() {
		if strings.EqualFold(p.Name, name) {
			p := p
			return &p, nil
		}
	}
	return nil, fmt.Errorf("unknown -profile %q (want OP-I or OP-II)", name)
}

func parseFixes(spec string) (netemu.FixSet, error) {
	var fs netemu.FixSet
	if spec == "" {
		return fs, nil
	}
	if strings.EqualFold(spec, "all") {
		return netemu.AllFixes(), nil
	}
	for _, p := range strings.Split(spec, ",") {
		switch strings.ToLower(strings.TrimSpace(p)) {
		case "reliable":
			fs.ReliableSignaling = true
		case "parallel":
			fs.ParallelUpdate = true
		case "decouple":
			fs.DomainDecoupling = true
		case "crosssys":
			fs.CrossSystem = true
		default:
			return fs, fmt.Errorf("unknown fix %q (want reliable, parallel, decouple, crosssys, or all)", p)
		}
	}
	return fs, nil
}

func orDefault(v, def string) string {
	if v == "" {
		return def
	}
	return v
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "cnetsim:", err)
		os.Exit(1)
	}
}

func waitInterrupt() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt)
	<-ch
}
