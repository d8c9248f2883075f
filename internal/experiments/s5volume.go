package experiments

import (
	"fmt"

	"cnetverifier/internal/netemu"
	"cnetverifier/internal/stats"
	"cnetverifier/internal/workload"
)

// S5Stats reproduces §7's S5 accounting: how much data each 3G call
// degrades. The paper observed 113 affected calls averaging 67 s and
// 368 KB of affected volume; 109 of 113 moved less than 550 KB while
// four moved over 4 MB (the largest 18.5 MB).
type S5Stats struct {
	Calls         int
	AvgCallSec    float64
	AvgAffectedKB float64
	Under550KB    int
	Over4MB       int
	MaxMB         float64
}

func (s S5Stats) String() string {
	return fmt.Sprintf("S5: %d calls, avg %.0fs, avg affected %.0f KB; %d under 550 KB, %d over 4 MB (max %.1f MB)",
		s.Calls, s.AvgCallSec, s.AvgAffectedKB, s.Under550KB, s.Over4MB, s.MaxMB)
}

// S5AffectedVolumes simulates the §7 cohort's affected-traffic volumes
// through the shared workload.S5CallModel: most calls run light
// background traffic (tens of kbps) while a small fraction carries a
// bulk transfer that saturates the degraded shared channel — the four
// heavy calls of the study. The generator is threaded explicitly so
// the campaign engine reproduces the same per-call accounting from its
// own deterministic stream.
func S5AffectedVolumes(calls int, seed int64) S5Stats {
	rng := stats.NewRand(seed)
	ch := netemu.SharedChannelFor(netemu.OPII(), netemu.FixSet{}, false)
	ch.CallActive = true
	model := workload.DefaultS5CallModel()

	var stats S5Stats
	stats.Calls = calls
	var totalSec, totalKB float64
	for i := 0; i < calls; i++ {
		dur, kb := model.SampleAffected(rng, ch.DataRateDL)
		totalSec += dur.Seconds()
		totalKB += kb
		if kb < 550 {
			stats.Under550KB++
		}
		if kb > 4096 {
			stats.Over4MB++
		}
		if mb := kb / 1024; mb > stats.MaxMB {
			stats.MaxMB = mb
		}
	}
	if calls > 0 {
		stats.AvgCallSec = totalSec / float64(calls)
		stats.AvgAffectedKB = totalKB / float64(calls)
	}
	return stats
}
