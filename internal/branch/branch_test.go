package branch

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestNewErrors(t *testing.T) {
	cases := []struct{ entries, bits int }{
		{0, 1}, {-4, 1}, {100, 1}, {16, 3}, {16, 0},
	}
	for _, c := range cases {
		if _, err := New(c.entries, c.bits); err == nil {
			t.Fatalf("New(%d, %d) accepted", c.entries, c.bits)
		}
	}
}

func TestOneBitLearnsDirection(t *testing.T) {
	p, err := New(16, 1)
	if err != nil {
		t.Fatal(err)
	}
	pc := uint32(0x100)
	p.Update(pc, true)
	if !p.Predict(pc) {
		t.Fatal("1-bit did not learn taken")
	}
	p.Update(pc, false)
	if p.Predict(pc) {
		t.Fatal("1-bit did not learn not-taken")
	}
}

func TestOneBitAlternatingAlwaysMisses(t *testing.T) {
	p, err := New(16, 1)
	if err != nil {
		t.Fatal(err)
	}
	pc := uint32(0x40)
	p.Update(pc, true) // warm up
	misses := 0
	outcome := false
	for i := 0; i < 100; i++ {
		if p.Update(pc, outcome) {
			misses++
		}
		outcome = !outcome
	}
	// A 1-bit predictor mispredicts every flip of an alternating branch.
	if misses != 100 {
		t.Fatalf("alternating misses = %d, want 100", misses)
	}
}

func TestTwoBitToleratesSingleDeviation(t *testing.T) {
	p, err := New(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	pc := uint32(0x80)
	for i := 0; i < 4; i++ {
		p.Update(pc, true) // saturate to strongly taken
	}
	p.Update(pc, false) // one not-taken (loop exit)
	if !p.Predict(pc) {
		t.Fatal("2-bit flipped after a single deviation")
	}
	if p.Update(pc, true) {
		t.Fatal("2-bit mispredicted the taken resume")
	}
}

func TestBiasedBranchRates(t *testing.T) {
	// A strongly biased branch should have a low misprediction rate; an
	// unbiased one ~50% on a 1-bit table.
	run := func(bias float64) float64 {
		p, err := New(1024, 1)
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(17)
		for i := 0; i < 20000; i++ {
			p.Update(0x123, r.Bool(bias))
		}
		lookups, misses := p.Stats()
		return float64(misses) / float64(lookups)
	}
	if easy := run(0.98); easy > 0.08 {
		t.Fatalf("easy branch mispredict rate = %v, want < 0.08", easy)
	}
	if hard := run(0.5); hard < 0.4 || hard > 0.6 {
		t.Fatalf("random branch mispredict rate = %v, want ~0.5", hard)
	}
}

func TestAliasingDistinctSlots(t *testing.T) {
	p, err := New(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	// PCs 0 and 16 map to different slots (after >>2, indices 0 and 0b100&3=0)...
	// indices: pc>>2 & 3. pc=0 -> 0; pc=4 -> 1.
	p.Update(0, true)
	p.Update(4, false)
	if !p.Predict(0) || p.Predict(4) {
		t.Fatal("distinct slots interfered")
	}
	// pc=16: (16>>2)&3 = 0 -> aliases pc=0.
	p.Update(16, false)
	if p.Predict(0) {
		t.Fatal("aliased update did not affect shared slot")
	}
}

func TestResetAndStats(t *testing.T) {
	p, err := New(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	p.Update(0, false) // weakly-taken init predicts taken: miss
	lookups, misses := p.Stats()
	if lookups != 1 || misses != 1 {
		t.Fatalf("stats = %d/%d, want 1/1", lookups, misses)
	}
	p.Reset()
	lookups, misses = p.Stats()
	if lookups != 0 || misses != 0 {
		t.Fatal("stats survived reset")
	}
	if !p.Predict(0) {
		t.Fatal("2-bit reset state should predict taken")
	}
}

// Property: Update's reported misprediction always matches the
// pre-update Predict value.
func TestQuickUpdateConsistentWithPredict(t *testing.T) {
	f := func(seed uint64, twoBit bool) bool {
		bits := 1
		if twoBit {
			bits = 2
		}
		p, err := New(64, bits)
		if err != nil {
			return false
		}
		r := rng.New(seed)
		for i := 0; i < 500; i++ {
			pc := uint32(r.Intn(1024)) * 4
			taken := r.Bool(0.7)
			want := p.Predict(pc) != taken
			if p.Update(pc, taken) != want {
				return false
			}
		}
		lookups, misses := p.Stats()
		return lookups == 500 && misses <= lookups
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUpdate(b *testing.B) {
	p, err := New(16384, 1)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(1)
	pcs := make([]uint32, 1024)
	for i := range pcs {
		pcs[i] = uint32(r.Intn(1 << 20))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Update(pcs[i&1023], i&3 != 0)
	}
}
