// Package branch implements the branch history table used by the modeled
// core: the paper's baseline (Table 3) carries a 16K-entry 1-bit BHT; a
// 2-bit saturating-counter variant is provided as well.
package branch

import "fmt"

// Predictor is a direct-mapped branch history table indexed by PC.
type Predictor struct {
	bits    int // 1 or 2
	mask    uint32
	state   []uint8 // 1-bit: 0/1 taken; 2-bit: 0..3 counter
	lookups uint64
	misses  uint64
}

// New constructs a BHT with the given number of entries (a power of two)
// and counter width in bits (1 or 2). One-bit entries predict the last
// outcome; two-bit entries are saturating counters predicting taken for
// states 2 and 3.
func New(entries, bits int) (*Predictor, error) {
	p := &Predictor{}
	if err := p.Configure(entries, bits); err != nil {
		return nil, err
	}
	return p, nil
}

// Configure reshapes the predictor to the given geometry, reusing the
// existing state array when it is large enough (so a pooled predictor
// reaches a steady state with zero heap allocations), and resets learned
// state and statistics. The geometry rules are those of New.
func (p *Predictor) Configure(entries, bits int) error {
	if entries <= 0 || entries&(entries-1) != 0 {
		return fmt.Errorf("branch: entries %d must be a positive power of two", entries)
	}
	if bits != 1 && bits != 2 {
		return fmt.Errorf("branch: counter width %d must be 1 or 2", bits)
	}
	p.bits = bits
	p.mask = uint32(entries - 1)
	if cap(p.state) < entries {
		p.state = make([]uint8, entries)
	} else {
		p.state = p.state[:entries]
	}
	// Reset initializes 2-bit entries to weakly taken: loops predict well
	// from the start, matching typical hardware reset state.
	p.Reset()
	return nil
}

// index hashes the PC to a table slot. Instructions are 4 bytes, so the
// low two bits carry no information.
func (p *Predictor) index(pc uint32) int {
	return int((pc >> 2) & p.mask)
}

// Predict returns the current prediction for the branch at pc without
// updating state.
func (p *Predictor) Predict(pc uint32) bool {
	s := p.state[p.index(pc)]
	if p.bits == 1 {
		return s != 0
	}
	return s >= 2
}

// Update records the actual outcome, trains the table, and reports
// whether the (pre-update) prediction was wrong.
func (p *Predictor) Update(pc uint32, taken bool) (mispredicted bool) {
	i := p.index(pc)
	p.lookups++
	var predicted bool
	if p.bits == 1 {
		predicted = p.state[i] != 0
		if taken {
			p.state[i] = 1
		} else {
			p.state[i] = 0
		}
	} else {
		predicted = p.state[i] >= 2
		if taken {
			if p.state[i] < 3 {
				p.state[i]++
			}
		} else if p.state[i] > 0 {
			p.state[i]--
		}
	}
	if predicted != taken {
		p.misses++
		return true
	}
	return false
}

// ResetStats clears the counters but keeps trained state, for use after
// a warmup pass.
func (p *Predictor) ResetStats() {
	p.lookups = 0
	p.misses = 0
}

// Reset clears learned state and statistics.
func (p *Predictor) Reset() {
	for i := range p.state {
		if p.bits == 2 {
			p.state[i] = 2
		} else {
			p.state[i] = 0
		}
	}
	p.lookups = 0
	p.misses = 0
}

// Stats returns lookups and mispredictions since the last Reset.
func (p *Predictor) Stats() (lookups, mispredictions uint64) {
	return p.lookups, p.misses
}
