package conformance

import "testing"

// FuzzGraphSpec drives the generator with arbitrary seeds and bounds and
// requires that (1) every generated spec validates and (2) the in-process
// engine satisfies every oracle on it. The CI fuzz job runs this for a
// fixed time budget; crashers archive the failing corpus entry.
func FuzzGraphSpec(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(4))
	f.Add(int64(42), uint8(1), uint8(8))
	f.Add(int64(-7), uint8(3), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, uows, emit uint8) {
		cfg := GenConfig{
			MaxUOWs: int(uows%3) + 1,
			MaxEmit: int(emit%12) + 2,
			Fused:   seed&1 == 1, // odd seeds run with transforms fused
		}
		s := Generate(seed, cfg)
		if err := s.Validate(); err != nil {
			t.Fatalf("generated invalid spec: %v\n%s", err, s)
		}
		if fail := Check(s, Options{Engines: []string{"core"}}); fail != nil {
			t.Fatalf("core conformance violation: %v", fail)
		}
	})
}
