package core

import "testing"

// TestNoFingerprintCollisions screens every standard world, and the
// shared-core 3-UE world under Symmetry, with Options.Paranoid: two
// distinct states sharing a visited-table fingerprint is an error
// there, so a clean run says model.hash64 spreads these state spaces
// without a single collision (a normal run would have resolved one
// silently by probing past it).
func TestNoFingerprintCollisions(t *testing.T) {
	if testing.Short() {
		t.Skip("screens every standard world")
	}
	worlds := StandardWorlds(false)
	worlds["multiue-shared3/sym"] = MultiUEWorldShared(3, false)
	for name, s := range worlds {
		if raceEnabled && (name == "full" || name == "multiue") {
			continue // instrumented screens of the two largest worlds dominate the package timeout
		}
		opt := s.Options
		opt.Paranoid = true
		opt.Symmetry = name == "multiue-shared3/sym"
		r, err := Screen(s, opt)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if r.Result.States == 0 {
			t.Errorf("%s: explored no states", name)
		}
	}
}
