package sim

import "repro/internal/trace"

// Outcome-mask bits, one byte per timed-region instruction. The caches
// and the branch history table are private structures driven in program
// order by an immutable trace, so for a fixed (trace, geometry) warm key
// their hit/miss/mispredict outcomes are identical across every
// configuration — latencies, width, depth, pools and queues change when
// events cost, never whether they occur. Computing the outcomes once per
// key (outcomes) lets every run replay them without simulating the
// hierarchy at all (timedReplay). mTakenOK folds the trace's taken bit
// in with the prediction, so replay reads a branch's whole fetch-side
// effect from the mask: a mispredict redirects fetch, a correctly
// predicted taken branch ends its fetch group.
const (
	mIL1Miss    byte = 1 << iota // instruction fetch missed the IL1
	mIL2Miss                     // ...and the L2 (memory fill)
	mDL1Miss                     // load/store missed the DL1
	mDL2Miss                     // ...and the L2 (memory fill)
	mMispredict                  // branch was mispredicted
	mTakenOK                     // branch was taken and predicted correctly
)

// outcomes computes a warm key's outcome mask and activity: it reshapes
// and warms the scratch's caches and branch history table exactly as the
// seed path does, then walks the timed region through them in program
// order with no timing, writing each instruction's m* bits into mask
// (one byte per timed instruction). Cache and predictor state never
// depends on when an access happens, only on the order of accesses, so
// these are the outcomes every configuration sharing the key meets in
// timed. The activity counters are event counts over the same walk, so
// they too are the same for every configuration of the key.
//
// The walk dispatches to the cache lookups specialized for the
// geometries the design space uses: the instruction cache is always
// direct-mapped (IL1Assoc is 1), so lookups go through the inlinable
// cache.AccessDirect, and consecutive instructions in the same cache
// block — the overwhelmingly common case — skip the tag compare through
// cache.Rehit (both the hit and the miss path of the previous access
// left the block resident). The data cache takes Access2 when 2-way (the
// whole design space) or AccessDirect when direct-mapped, and the L2
// takes Access4 when 4-way; each leaves state bit-identical to Access.
func (s *Scratch) outcomes(p Params, tr *trace.Trace, mask []byte) (Activity, error) {
	if err := s.configure(p); err != nil {
		return Activity{}, err
	}
	s.warmup(tr)
	n := tr.Len()
	warm := warmupLen(n)
	mask = mask[:n-warm]
	il1, dl1, l2, bht := &s.il1, &s.dl1, &s.l2, &s.bht
	il1Shift := il1.BlockShift()
	il1Mask := il1.SetMask()
	dl1Direct := dl1.Assoc() == 1
	dl1Two := dl1.Assoc() == 2
	l2Four := l2.Assoc() == 4
	l2Access := func(addr uint32) bool {
		if l2Four {
			return l2.Access4(addr)
		}
		return l2.Access(addr)
	}
	lastIBlk := int64(-1) // I-block of the previous fetch; -1 = none
	var act Activity
	var kinds [trace.NumOpKinds]int64

	for i := warm; i < n; i++ {
		in := &tr.Insts[i]
		kinds[in.Kind]++
		var m byte
		blk := in.PC >> il1Shift
		if int64(blk) == lastIBlk {
			il1.Rehit(blk & il1Mask)
		} else {
			lastIBlk = int64(blk)
			if !il1.AccessDirect(in.PC) {
				m = mIL1Miss
				act.IL1Miss++
				if !l2Access(in.PC) {
					m |= mIL2Miss
					act.L2Miss++
				}
			}
		}
		switch in.Kind {
		case trace.OpLoad, trace.OpStore:
			var hit bool
			switch {
			case dl1Two:
				hit = dl1.Access2(in.Addr)
			case dl1Direct:
				hit = dl1.AccessDirect(in.Addr)
			default:
				hit = dl1.Access(in.Addr)
			}
			if !hit {
				m |= mDL1Miss
				act.DL1Miss++
				if !l2Access(in.Addr) {
					m |= mDL2Miss
					act.L2Miss++
				}
			}
		case trace.OpBranch:
			if bht.Update(in.PC, in.Taken) {
				m |= mMispredict
				act.BranchMispredicts++
			} else if in.Taken {
				m |= mTakenOK
			}
		}
		mask[i-warm] = m
	}

	// Access and issue totals are structural: one I-fetch and one issue
	// per instruction, one D-access per memory op, one L2 access per L1
	// miss, one memory access per L2 miss, one BHT lookup per branch.
	act.Int, act.FP = kinds[trace.OpInt], kinds[trace.OpFP]
	act.Load, act.Store = kinds[trace.OpLoad], kinds[trace.OpStore]
	act.Branch = kinds[trace.OpBranch]
	act.Issued = int64(n - warm)
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
// eight entries so that indexing it by a kind masked with 7 needs no
// bounds check; the three past trace.NumOpKinds are never used.
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

// timedReplay is the Runner's cycle-accounting kernel. It computes
// exactly what timed computes — the golden and property tests in
// fast_test.go and the eval/core layers pin the two bit-for-bit — but
// consumes an outcome mask instead of simulating the caches and the
// branch predictor, so a run touches no hierarchy state at all: no
// warmup, just latency arithmetic over the resource rings. mask holds one
// byte per timed instruction and act the key's activity, both as written
// by outcomes; because outcomes are configuration-independent within a
// warm key (see the m* constants), replaying them under different
// latencies, widths, depths, pools and queues is bit-identical to
// simulating them.
//
// The loop has no data-dependent branch. Everything timed decides per
// kind or per outcome is a table lookup resolved once per run: the kind's
// route, the fetch stall by the I-side miss bits, the execute latency by
// kind and D-side miss bits. Every earliest-time chain is a builtin max,
// ring positions wrap without a branch (next), and the conditional
// updates are masked maxes: a dependence on "no producer" reads
// complete[i], zeroed first; in-order issue, the mispredict redirect and
// the taken-branch fetch break AND their candidate time with a mask that
// is all ones or zero. The taken break needs no reset: fetch times never
// decrease, so once passed, the bound it sets stays below every later
// fetch. The reference kernel stays the plain transcription of the
// pipeline model; this one is allowed to be clever because timed is not.
func (s *Scratch) timedReplay(out *Result, p Params, tr *trace.Trace, mask []byte, act Activity) {
	cfg := p.Config
	n := tr.Len()
	warm := warmupLen(n)
	rings := s.prepare(p, n, warm)
	fetch, retire := &rings[0], &rings[1]
	rt := routes(&rings)
	complete := s.complete

	il1Lat := int64(p.IL1Cycles)
	l2Lat := int64(p.L2Cycles)
	memLat := int64(p.MemCycles)
	var stall [4]int64 // by mask&3: the IL1 and IL2 miss bits
	for m := range stall {
		stall[m] = int64(m&1)*(il1Lat+l2Lat) + int64(m>>1)*memLat
	}
	var lat [32]int64 // by kind<<2 | the DL1 and DL2 miss bits
	for k, base := range [trace.NumOpKinds]int64{IntLatency, FPLatency, int64(p.DL1Cycles), StoreLatency, BranchLatency} {
		for m := 0; m < 4; m++ {
			lat[k<<2|m] = base
			if trace.OpKind(k) == trace.OpLoad {
				lat[k<<2|m] += int64(m&1)*l2Lat + int64(m>>1)*memLat
			}
		}
	}
	redirectLat := p.MispredictRedirect()
	frontend := int64(p.FrontendStages)
	var inOrder int64 // ^0 makes issue wait for the previous issue
	if cfg.InOrder {
		inOrder = ^0
	}

	var (
		redirect     int64
		takenNext    int64 // fetch after a predicted taken branch's cycle
		lastFetch    int64
		lastDispatch int64
		lastIssue    int64
		lastRetire   int64
	)
	insts := tr.Insts[warm:n]
	mask = mask[:len(insts)]
	for j := range insts {
		in := &insts[j]
		m := int64(mask[j])
		r := &rt[in.Kind&7]
		i := warm + j

		f := fetch.earliest(max(lastFetch, redirect, takenNext)) + stall[m&3] // mIL1Miss, mIL2Miss
		fetch.commit(f + 1)
		lastFetch = f

		d := max(r.queue.earliest(r.pool.earliest(f+frontend)), lastDispatch)
		lastDispatch = d

		complete[i] = 0
		ready := max(d+1, lastIssue&inOrder, complete[i-int(in.Dep1)], complete[i-int(in.Dep2)])
		issue := r.fu.earliest(ready)
		r.fu.commit(issue + 1)
		lastIssue = issue

		c := issue + lat[int(in.Kind&7)<<2|int(m>>2&3)] // mDL1Miss, mDL2Miss
		complete[i] = c

		ret := retire.earliest(max(c, lastRetire))
		retire.commit(ret + 1)
		lastRetire = ret
		r.pool.commit(ret & r.keep)
		r.queue.commit([3]int64{issue, c, ret}[r.release])

		redirect = max(redirect, (c+redirectLat)&-(m>>4&1)) // mMispredict
		takenNext = max(takenNext, (f+1)&-(m>>5&1))         // mTakenOK
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
