package sim

import (
	"math/bits"

	"repro/internal/trace"
)

// Event classes, one byte per timed-region instruction. The caches and
// the branch history table are private structures driven in program
// order by an immutable trace, so for a fixed (trace, geometry) warm key
// their hit/miss/mispredict outcomes are identical across every
// configuration — latencies, width, depth, pools and queues change when
// events cost, never whether they occur. Composing the outcomes once per
// key (Runner.outcomes) lets every run replay them without simulating
// the hierarchy at all (timedReplay). The byte is the instruction's
// event class, and a per-run table indexed by it holds everything replay
// needs:
//
//	bits 0–1  IL1 miss, and L2 miss on that fetch
//	bits 2–3  memory ops: DL1 miss, and L2 miss on that access;
//	          branches: mispredicted, or taken and predicted correctly
//	bits 4–6  the op kind
//
// Folding the trace's taken bit in with the prediction lets replay read a
// branch's whole fetch-side effect from its class: a mispredict redirects
// fetch, a correctly predicted taken branch ends its fetch group.
const (
	cIL1Miss byte = 1 << iota // instruction fetch missed the IL1
	cIL2Miss                  // ...and the L2 (memory fill)
	cDL1Miss                  // load/store missed the DL1
	cDL2Miss                  // ...and the L2 (memory fill)
)

const (
	cMispredict = cDL1Miss // branch was mispredicted
	cTakenOK    = cDL2Miss // branch was taken and predicted correctly
	cKindShift  = 4        // the op kind sits above the outcome bits
	numClasses  = 8 << cKindShift
)

// branchPass is a trace's configuration-free component: every timed
// instruction's base class (its kind and, for a branch, the predictor's
// outcome; the BHT geometry is a package constant), plus the kind and
// mispredict counts of the timed region.
type branchPass struct {
	base        []byte
	kinds       [trace.NumOpKinds]int64
	mispredicts int64
}

// missPass is one L1 cache's component for one geometry: which of the
// accesses it saw missed, as bitsets over trace indices. warm covers the
// warmup walk, which for the IL1 is the whole trace and for the DL1 the
// leading warmupLen instructions; timed covers the timed region, indexed
// from its first instruction. L1 state never depends on the L2, so these
// are the same for every L2 size.
type missPass struct {
	warm, timed []uint64
	misses      int64 // timed-region misses
}

// bitsetWords is the number of words of a bitset over n indices.
func bitsetWords(n int) int { return (n + 63) >> 6 }

// missPassBytes is the size of a missPass whose warmup walk covers warm
// instructions, over a timed region of timed instructions.
func missPassBytes(warm, timed int) int64 {
	return 8 * int64(bitsetWords(warm)+bitsetWords(timed))
}

// reset sizes the pass's bitsets for the given walks and clears them,
// reusing their storage when large enough.
func (mp *missPass) reset(warm, timed int) {
	mp.warm = clearWords(mp.warm, bitsetWords(warm))
	mp.timed = clearWords(mp.timed, bitsetWords(timed))
	mp.misses = 0
}

func clearWords(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// branchWalk computes the trace's branchPass: the predictor warms over
// the leading warmupLen instructions, exactly as warmup does, then the
// timed region's branches are looked up in program order.
func (s *Scratch) branchWalk(tr *trace.Trace, bp *branchPass) error {
	if err := s.bht.Configure(BHTEntries, 1); err != nil {
		return err
	}
	n := tr.Len()
	warm := warmupLen(n)
	for i := range tr.Insts[:warm] {
		if in := &tr.Insts[i]; in.Kind == trace.OpBranch {
			s.bht.Update(in.PC, in.Taken)
		}
	}
	if cap(bp.base) < n-warm {
		bp.base = make([]byte, n-warm)
	}
	bp.base = bp.base[:n-warm]
	bp.kinds = [trace.NumOpKinds]int64{}
	bp.mispredicts = 0
	for j, in := range tr.Insts[warm:] {
		bp.kinds[in.Kind]++
		c := byte(in.Kind) << cKindShift
		if in.Kind == trace.OpBranch {
			if s.bht.Update(in.PC, in.Taken) {
				c |= cMispredict
				bp.mispredicts++
			} else if in.Taken {
				c |= cTakenOK
			}
		}
		bp.base[j] = c
	}
	return nil
}

// il1Walk computes the IL1 pass for one size: the whole trace, as
// warmup walks it, then the timed region. The instruction cache is
// always direct-mapped (IL1Assoc is 1), so lookups go through the
// inlinable cache.AccessDirect, and consecutive instructions in the same
// cache block — the overwhelmingly common case — skip the tag compare
// through cache.Rehit (both the hit and the miss path of the previous
// access left the block resident). Either leaves state bit-identical to
// Access.
func (s *Scratch) il1Walk(tr *trace.Trace, kb int, mp *missPass) error {
	c := &s.il1
	if err := c.Configure("il1", kb*1024, IL1Assoc, trace.BlockBytes); err != nil {
		return err
	}
	n := tr.Len()
	warm := warmupLen(n)
	mp.reset(n, n-warm)
	shift, setMask := c.BlockShift(), c.SetMask()
	walk := func(insts []trace.Inst, set []uint64) (misses int64) {
		last := int64(-1) // I-block of the previous fetch; -1 = none
		for i := range insts {
			pc := insts[i].PC
			if blk := pc >> shift; int64(blk) == last {
				c.Rehit(blk & setMask)
			} else {
				last = int64(blk)
				if !c.AccessDirect(pc) {
					set[i>>6] |= 1 << (i & 63)
					misses++
				}
			}
		}
		return misses
	}
	walk(tr.Insts, mp.warm)
	mp.misses = walk(tr.Insts[warm:], mp.timed)
	return nil
}

// dl1Walk computes the DL1 pass for one geometry: the memory ops of the
// leading warmupLen instructions, as warmup walks them, then those of
// the timed region. Lookups take Access2 when 2-way (the whole design
// space) or AccessDirect when direct-mapped; each leaves state
// bit-identical to Access.
func (s *Scratch) dl1Walk(tr *trace.Trace, kb, assoc int, mp *missPass) error {
	c := &s.dl1
	if err := c.Configure("dl1", kb*1024, assoc, trace.BlockBytes); err != nil {
		return err
	}
	n := tr.Len()
	warm := warmupLen(n)
	mp.reset(warm, n-warm)
	two, direct := c.Assoc() == 2, c.Assoc() == 1
	walk := func(insts []trace.Inst, set []uint64) (misses int64) {
		for i := range insts {
			in := &insts[i]
			if in.Kind != trace.OpLoad && in.Kind != trace.OpStore {
				continue
			}
			var hit bool
			switch {
			case two:
				hit = c.Access2(in.Addr)
			case direct:
				hit = c.AccessDirect(in.Addr)
			default:
				hit = c.Access(in.Addr)
			}
			if !hit {
				set[i>>6] |= 1 << (i & 63)
				misses++
			}
		}
		return misses
	}
	walk(tr.Insts[:warm], mp.warm)
	mp.misses = walk(tr.Insts[warm:n], mp.timed)
	return nil
}

// compose writes a warm key's outcome mask (one class byte per timed
// instruction) and returns its activity, from the key's component
// passes and one L2 pass. The L2 is the only component that needs the
// whole key, and it sees exactly the accesses the L1s miss on, in the
// order warmup and the timed region issue them: every IL1 miss of the
// whole-trace warmup walk, then the DL1 misses of the warmup prefix,
// then the timed region's misses by instruction, the fetch before the
// data access within one. Cache and predictor state never depends on
// when an access happens, only on the order of accesses, so these are
// the outcomes every configuration sharing the key meets in timed. The
// activity counters are event counts over the same walk, so they too are
// the same for every configuration of the key.
func (s *Scratch) compose(p Params, tr *trace.Trace, br *branchPass, il1, dl1 *missPass, mask []byte) (Activity, error) {
	l2 := &s.l2
	if err := l2.Configure("l2", p.Config.L2KB*1024, L2Assoc, trace.BlockBytes); err != nil {
		return Activity{}, err
	}
	four := l2.Assoc() == 4
	access := func(addr uint32) bool {
		if four {
			return l2.Access4(addr)
		}
		return l2.Access(addr)
	}
	insts := tr.Insts
	for w, x := range il1.warm {
		for ; x != 0; x &= x - 1 {
			access(insts[w<<6|bits.TrailingZeros64(x)].PC)
		}
	}
	for w, x := range dl1.warm {
		for ; x != 0; x &= x - 1 {
			access(insts[w<<6|bits.TrailingZeros64(x)].Addr)
		}
	}

	timed := insts[warmupLen(len(insts)):]
	copy(mask, br.base)
	var l2Miss int64
	dTimed := dl1.timed[:len(il1.timed)]
	for w, iw := range il1.timed {
		dw := dTimed[w]
		for x := iw | dw; x != 0; x &= x - 1 {
			b := bits.TrailingZeros64(x)
			j := w<<6 | b
			c := mask[j]
			if iw>>b&1 != 0 {
				c |= cIL1Miss
				if !access(timed[j].PC) {
					c |= cIL2Miss
					l2Miss++
				}
			}
			if dw>>b&1 != 0 {
				c |= cDL1Miss
				if !access(timed[j].Addr) {
					c |= cDL2Miss
					l2Miss++
				}
			}
			mask[j] = c
		}
	}

	// Access and issue totals are structural: one I-fetch and one issue
	// per instruction, one D-access per memory op, one L2 access per L1
	// miss, one memory access per L2 miss, one BHT lookup per branch.
	act := Activity{
		Int:               br.kinds[trace.OpInt],
		FP:                br.kinds[trace.OpFP],
		Load:              br.kinds[trace.OpLoad],
		Store:             br.kinds[trace.OpStore],
		Branch:            br.kinds[trace.OpBranch],
		Issued:            int64(len(timed)),
		IL1Miss:           il1.misses,
		DL1Miss:           dl1.misses,
		L2Miss:            l2Miss,
		BranchMispredicts: br.mispredicts,
	}
	act.IL1Access = act.Issued
	act.DL1Access = act.Load + act.Store
	act.L2Access = act.IL1Miss + act.DL1Miss
	act.MemAccess = act.L2Miss
	act.BranchLookups = act.Branch
	return act, nil
}

// Queue release times, indexing the per-instruction [3]int64 timedReplay
// builds: reservation stations free at issue, load-queue entries at
// completion, store-queue entries at retirement.
const (
	relIssue = iota
	relComplete
	relRetire
)

// route is one instruction kind's path through the resource rings. The
// store sink stands in for the rename pool stores do not have: it is
// committed ret&keep with keep = 0, so its one slot stays 0 and its
// earliest is the identity on the non-negative times replay uses.
type route struct {
	pool, queue, fu *ring
	keep            int64 // ^0, or 0 for the store sink
	release         int   // relIssue, relComplete or relRetire
}

// routes resolves each kind's route over prepare's rings. The table has
// eight entries, one per value of the class byte's kind field; the three
// past trace.NumOpKinds are never used.
func routes(rings *[numRings]ring) [8]route {
	gpr, fpr, spr := &rings[2], &rings[3], &rings[4]
	rsFX, rsFP, rsBR, lsq, sq := &rings[5], &rings[6], &rings[7], &rings[8], &rings[9]
	fuFX, fuFP, fuLS, fuBR := &rings[10], &rings[11], &rings[12], &rings[13]
	sink := &rings[14]
	var rt [8]route
	rt[trace.OpInt] = route{gpr, rsFX, fuFX, ^0, relIssue}
	rt[trace.OpFP] = route{fpr, rsFP, fuFP, ^0, relIssue}
	rt[trace.OpLoad] = route{gpr, lsq, fuLS, ^0, relComplete}
	rt[trace.OpStore] = route{sink, sq, fuLS, 0, relRetire}
	rt[trace.OpBranch] = route{spr, rsBR, fuBR, ^0, relIssue}
	return rt
}

// event is one event class resolved for one run: the kind's route, the
// fetch stall its I-side bits cost, the execute latency its kind and
// D-side bits cost, and its branch effect on the fetch floor — mis is
// all ones for a mispredicted branch (fetch waits for its redirect) and
// tok is 1 for a correctly predicted taken branch (the next fetch is a
// cycle later).
type event struct {
	route
	stall, lat int64
	mis, tok   int64
}

// timedReplay is the Runner's cycle-accounting kernel. It computes
// exactly what timed computes — the golden and property tests in
// fast_test.go and the eval/core layers pin the two bit-for-bit — but
// consumes an outcome mask instead of simulating the caches and the
// branch predictor, so a run touches no hierarchy state at all: no
// warmup, just latency arithmetic over the resource rings. mask holds one
// event class per timed instruction and act the key's activity, both as
// composed by Runner.outcomes; because outcomes are
// configuration-independent within a warm key, replaying them under
// different latencies, widths, depths, pools and queues is bit-identical
// to simulating them.
//
// The loop has no data-dependent branch and reads only the dependence
// distances from the trace. Everything timed decides per kind or per
// outcome is resolved once per run into the event table, indexed by the
// class byte. Every earliest-time chain is a builtin max, ring positions
// wrap without a branch (next), and the conditional updates are masked
// maxes: a dependence on "no producer" reads complete[i], zeroed first,
// and in-order issue ANDs the previous issue time with a mask that is
// all ones or zero. Two equivalences shorten the loop further. Fetch and
// retire each have Width slots and take one per instruction, so they
// share one ring position. And the previous fetch, the mispredict
// redirect and the taken-branch break fold into one fetch floor g,
// max(f+tok, (c+redirect)&mis): redirects and breaks only ever raise the
// floor, and f is at least every earlier one. The reference kernel stays
// the plain transcription of the pipeline model; this one is allowed to
// be clever because timed is not.
func (s *Scratch) timedReplay(out *Result, p Params, tr *trace.Trace, mask []byte, act Activity) {
	cfg := p.Config
	n := tr.Len()
	warm := warmupLen(n)
	rings := s.prepare(p, n, warm)
	fetch := rings[0].slots
	retire := rings[1].slots[:len(fetch)]
	complete := s.complete

	il1Lat := int64(p.IL1Cycles)
	l2Lat := int64(p.L2Cycles)
	memLat := int64(p.MemCycles)
	kindLat := [trace.NumOpKinds]int64{IntLatency, FPLatency, int64(p.DL1Cycles), StoreLatency, BranchLatency}
	rt := routes(&rings)
	var tab [numClasses]event
	for c := range tab {
		k := c >> cKindShift
		if k >= trace.NumOpKinds {
			break
		}
		e := event{
			route: rt[k],
			stall: int64(c&1)*(il1Lat+l2Lat) + int64(c>>1&1)*memLat,
			lat:   kindLat[k],
		}
		switch trace.OpKind(k) {
		case trace.OpLoad:
			e.lat += int64(c>>2&1)*l2Lat + int64(c>>3&1)*memLat
		case trace.OpBranch:
			e.mis = -int64(c >> 2 & 1)
			e.tok = int64(c >> 3 & 1)
		}
		tab[c] = e
	}
	redirectLat := p.MispredictRedirect()
	frontend := int64(p.FrontendStages)
	var inOrder int64 // ^0 makes issue wait for the previous issue
	if cfg.InOrder {
		inOrder = ^0
	}

	var (
		g            int64 // fetch floor: no fetch before this cycle
		w            int   // fetch and retire ring position
		lastDispatch int64
		lastIssue    int64
		lastRetire   int64
	)
	insts := tr.Insts[warm:n]
	mask = mask[:len(insts)]
	for j := range insts {
		e := &tab[mask[j]&(numClasses-1)]
		i := warm + j

		f := max(fetch[w], g) + e.stall
		fetch[w] = f + 1

		d := max(e.queue.earliest(e.pool.earliest(f+frontend)), lastDispatch)
		lastDispatch = d

		complete[i] = 0
		ready := max(d+1, lastIssue&inOrder, complete[i-int(insts[j].Dep1)], complete[i-int(insts[j].Dep2)])
		issue := e.fu.earliest(ready)
		e.fu.commit(issue + 1)
		lastIssue = issue

		c := issue + e.lat
		complete[i] = c

		ret := max(retire[w], c, lastRetire)
		retire[w] = ret + 1
		w = next(w, len(fetch))
		lastRetire = ret
		e.pool.commit(ret & e.keep)
		e.queue.commit([3]int64{issue, c, ret}[e.release])

		g = max(f+e.tok, (c+redirectLat)&e.mis)
	}

	timed := int64(len(insts))
	cycles := lastRetire + 1
	if prof, ok := trace.ProfileFor(tr.Name); ok && prof.IPCScale != 1 {
		cycles = int64(float64(cycles) / prof.IPCScale)
	}
	*out = Result{
		Benchmark:    tr.Name,
		Config:       cfg,
		Params:       p,
		Instructions: timed,
		Cycles:       cycles,
		Activity:     act,
	}
	out.IPC = float64(timed) / float64(cycles)
	out.BIPS = out.IPC * p.FreqGHz
}
