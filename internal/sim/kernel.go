package sim

import "repro/internal/trace"

// Outcome-mask bits, one byte per timed-region instruction. The caches
// and the branch history table are private structures driven in program
// order by an immutable trace, so for a fixed (trace, geometry) warm key
// their hit/miss/mispredict outcomes are identical across every
// configuration — latencies, width, depth, pools and queues change when
// events cost, never whether they occur. Recording the outcomes once per
// key lets later runs replay them without simulating the hierarchy at
// all (timedReplay).
const (
	mIL1Miss    byte = 1 << iota // instruction fetch missed the IL1
	mIL2Miss                     // ...and the L2 (memory fill)
	mDL1Miss                     // load/store missed the DL1
	mDL2Miss                     // ...and the L2 (memory fill)
	mMispredict                  // branch was mispredicted
)

// timedFast is the specialized cycle-accounting kernel the Runner fast
// path uses. It computes exactly what timed computes — the golden tests
// in fast_test.go and the eval/core layers pin the two bit-for-bit — but
// restructures the loop for speed:
//
//   - One switch on the instruction kind selects a straight-line block
//     per kind, replacing the reference kernel's routing tables, nil
//     checks and second execute switch with direct ring references.
//   - Bandwidth-style rings (functional units, retire slots) fuse their
//     earliest/commit pair into one slot-array touch via ring.bw. The
//     fetch ring cannot fuse: an I-cache miss stall lands between its
//     earliest and its commit.
//   - The instruction cache is always direct-mapped (IL1Assoc is a
//     package constant of 1), so lookups go through the inlinable
//     cache.AccessDirect, and consecutive instructions in the same cache
//     block — the overwhelmingly common case — short-circuit the tag
//     compare entirely through cache.Rehit. Both leave state
//     bit-identical to the reference Access path.
//   - The data cache takes the same AccessDirect shortcut when the
//     configuration is direct-mapped.
//
// The reference kernel stays the plain transcription of the pipeline
// model; this file is allowed to be clever precisely because timed is
// not, mirroring how the compiled model tables are pinned against the
// interpreted models.
//
// When rec is non-nil it must hold one byte per timed instruction; the
// kernel records each instruction's cache and predictor outcomes into it
// (the m* mask bits) so later runs of the same warm key can replay them
// through timedReplay.
func (s *Scratch) timedFast(out *Result, p Params, tr *trace.Trace, rec []byte) {
	cfg := p.Config
	n := tr.Len()
	warm := warmupLen(n)
	rings := s.prepare(p, n, warm)
	complete := s.complete
	fetchBW := &rings[0]
	retireBW := &rings[1]
	gpr := &rings[2]
	fpr := &rings[3]
	spr := &rings[4]
	rsFX := &rings[5]
	rsFP := &rings[6]
	rsBR := &rings[7]
	lsq := &rings[8]
	sq := &rings[9]
	fuFX := &rings[10]
	fuFP := &rings[11]
	fuLS := &rings[12]
	fuBR := &rings[13]

	il1, dl1, l2, bht := &s.il1, &s.dl1, &s.l2, &s.bht
	il1Lat := int64(p.IL1Cycles)
	dl1Lat := int64(p.DL1Cycles)
	l2Lat := int64(p.L2Cycles)
	memLat := int64(p.MemCycles)
	il1Shift := il1.BlockShift()
	il1Mask := il1.SetMask()
	// Associativity dispatch, resolved once per run: every design-space
	// configuration has a 2-way data cache and a 4-way L2 (Table 3), with
	// direct-mapped and generic fallbacks for the override extensions.
	dl1Direct := p.DL1Assoc == 1
	dl1Two := p.DL1Assoc == 2
	l2Four := l2.Assoc() == 4
	redirectLat := p.MispredictRedirect()

	var act Activity
	frontend := int64(p.FrontendStages)

	var (
		redirect     int64
		lastFetch    int64
		lastDispatch int64
		lastIssue    int64
		lastRetire   int64
		prevTakenAt  int64 = -1
		lastIBlk     int64 = -1 // I-block of the previous fetch; -1 = none
	)
	inOrder := cfg.InOrder

	for i := warm; i < n; i++ {
		in := &tr.Insts[i]
		var mbits byte

		// ---- Fetch ----
		f := lastFetch
		if redirect > f {
			f = redirect
		}
		if prevTakenAt >= 0 && f <= prevTakenAt {
			f = prevTakenAt + 1
			prevTakenAt = -1
		}
		f = fetchBW.earliest(f)

		// Instruction cache: direct-mapped, so a repeat of the previous
		// instruction's block is a guaranteed hit (both the hit and the
		// miss path of that access leave the block resident) and skips
		// the tag compare.
		act.IL1Access++
		blk := in.PC >> il1Shift
		if int64(blk) == lastIBlk {
			il1.Rehit(blk & il1Mask)
		} else {
			lastIBlk = int64(blk)
			if !il1.AccessDirect(in.PC) {
				mbits = mIL1Miss
				act.IL1Miss++
				stall := l2Lat
				act.L2Access++
				var l2hit bool
				if l2Four {
					l2hit = l2.Access4(in.PC)
				} else {
					l2hit = l2.Access(in.PC)
				}
				if !l2hit {
					mbits |= mIL2Miss
					act.L2Miss++
					act.MemAccess++
					stall += memLat
				}
				f += il1Lat + stall
			}
		}
		fetchBW.commit(f + 1)
		lastFetch = f

		switch in.Kind {
		case trace.OpInt:
			d := gpr.earliest(f + frontend)
			d = rsFX.earliest(d)
			if d < lastDispatch {
				d = lastDispatch
			}
			lastDispatch = d
			ready := d + 1
			if inOrder && lastIssue > ready {
				ready = lastIssue
			}
			if in.Dep1 > 0 {
				if c := complete[i-int(in.Dep1)]; c > ready {
					ready = c
				}
			}
			if in.Dep2 > 0 {
				if c := complete[i-int(in.Dep2)]; c > ready {
					ready = c
				}
			}
			issue := fuFX.bw(ready)
			lastIssue = issue
			act.Issued++
			act.Int++
			c := issue + IntLatency
			complete[i] = c
			rsFX.commit(issue)
			ret := c
			if ret < lastRetire {
				ret = lastRetire
			}
			ret = retireBW.bw(ret)
			lastRetire = ret
			gpr.commit(ret)

		case trace.OpFP:
			d := fpr.earliest(f + frontend)
			d = rsFP.earliest(d)
			if d < lastDispatch {
				d = lastDispatch
			}
			lastDispatch = d
			ready := d + 1
			if inOrder && lastIssue > ready {
				ready = lastIssue
			}
			if in.Dep1 > 0 {
				if c := complete[i-int(in.Dep1)]; c > ready {
					ready = c
				}
			}
			if in.Dep2 > 0 {
				if c := complete[i-int(in.Dep2)]; c > ready {
					ready = c
				}
			}
			issue := fuFP.bw(ready)
			lastIssue = issue
			act.Issued++
			act.FP++
			c := issue + FPLatency
			complete[i] = c
			rsFP.commit(issue)
			ret := c
			if ret < lastRetire {
				ret = lastRetire
			}
			ret = retireBW.bw(ret)
			lastRetire = ret
			fpr.commit(ret)

		case trace.OpLoad:
			d := gpr.earliest(f + frontend)
			d = lsq.earliest(d)
			if d < lastDispatch {
				d = lastDispatch
			}
			lastDispatch = d
			ready := d + 1
			if inOrder && lastIssue > ready {
				ready = lastIssue
			}
			if in.Dep1 > 0 {
				if c := complete[i-int(in.Dep1)]; c > ready {
					ready = c
				}
			}
			if in.Dep2 > 0 {
				if c := complete[i-int(in.Dep2)]; c > ready {
					ready = c
				}
			}
			issue := fuLS.bw(ready)
			lastIssue = issue
			act.Issued++
			act.Load++
			act.DL1Access++
			lat := dl1Lat
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
				mbits |= mDL1Miss
				act.DL1Miss++
				act.L2Access++
				lat += l2Lat
				var l2hit bool
				if l2Four {
					l2hit = l2.Access4(in.Addr)
				} else {
					l2hit = l2.Access(in.Addr)
				}
				if !l2hit {
					mbits |= mDL2Miss
					act.L2Miss++
					act.MemAccess++
					lat += memLat
				}
			}
			c := issue + lat
			complete[i] = c
			lsq.commit(c)
			ret := c
			if ret < lastRetire {
				ret = lastRetire
			}
			ret = retireBW.bw(ret)
			lastRetire = ret
			gpr.commit(ret)

		case trace.OpStore:
			d := sq.earliest(f + frontend)
			if d < lastDispatch {
				d = lastDispatch
			}
			lastDispatch = d
			ready := d + 1
			if inOrder && lastIssue > ready {
				ready = lastIssue
			}
			if in.Dep1 > 0 {
				if c := complete[i-int(in.Dep1)]; c > ready {
					ready = c
				}
			}
			if in.Dep2 > 0 {
				if c := complete[i-int(in.Dep2)]; c > ready {
					ready = c
				}
			}
			issue := fuLS.bw(ready)
			lastIssue = issue
			act.Issued++
			act.Store++
			act.DL1Access++
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
				mbits |= mDL1Miss
				act.DL1Miss++
				act.L2Access++
				var l2hit bool
				if l2Four {
					l2hit = l2.Access4(in.Addr)
				} else {
					l2hit = l2.Access(in.Addr)
				}
				if !l2hit {
					mbits |= mDL2Miss
					act.L2Miss++
					act.MemAccess++
				}
			}
			c := issue + StoreLatency
			complete[i] = c
			ret := c
			if ret < lastRetire {
				ret = lastRetire
			}
			ret = retireBW.bw(ret)
			lastRetire = ret
			sq.commit(ret)

		case trace.OpBranch:
			d := spr.earliest(f + frontend)
			d = rsBR.earliest(d)
			if d < lastDispatch {
				d = lastDispatch
			}
			lastDispatch = d
			ready := d + 1
			if inOrder && lastIssue > ready {
				ready = lastIssue
			}
			if in.Dep1 > 0 {
				if c := complete[i-int(in.Dep1)]; c > ready {
					ready = c
				}
			}
			if in.Dep2 > 0 {
				if c := complete[i-int(in.Dep2)]; c > ready {
					ready = c
				}
			}
			issue := fuBR.bw(ready)
			lastIssue = issue
			act.Issued++
			act.Branch++
			c := issue + BranchLatency
			complete[i] = c
			rsBR.commit(issue)
			act.BranchLookups++
			if bht.Update(in.PC, in.Taken) {
				mbits |= mMispredict
				act.BranchMispredicts++
				if r := c + redirectLat; r > redirect {
					redirect = r
				}
			} else if in.Taken {
				prevTakenAt = f
			}
			ret := c
			if ret < lastRetire {
				ret = lastRetire
			}
			ret = retireBW.bw(ret)
			lastRetire = ret
			spr.commit(ret)
		}
		if rec != nil {
			rec[i-warm] = mbits
		}
	}

	timed := int64(n - warm)
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

// timedReplay is the third-tier kernel: it consumes a recorded outcome
// mask instead of simulating the caches and the branch predictor, so a
// replayed run touches no hierarchy state at all — no warmup, no
// snapshot restore, just latency arithmetic over the resource rings.
// mask holds one byte per timed instruction as recorded by timedFast;
// because outcomes are configuration-independent within a warm key (see
// the m* constants), replaying them under different latencies, widths,
// depths, pools and queues is bit-identical to simulating them.
func (s *Scratch) timedReplay(out *Result, p Params, tr *trace.Trace, mask []byte) {
	cfg := p.Config
	n := tr.Len()
	warm := warmupLen(n)
	rings := s.prepare(p, n, warm)
	complete := s.complete
	fetchBW := &rings[0]
	retireBW := &rings[1]
	gpr := &rings[2]
	fpr := &rings[3]
	spr := &rings[4]
	rsFX := &rings[5]
	rsFP := &rings[6]
	rsBR := &rings[7]
	lsq := &rings[8]
	sq := &rings[9]
	fuFX := &rings[10]
	fuFP := &rings[11]
	fuLS := &rings[12]
	fuBR := &rings[13]

	il1Lat := int64(p.IL1Cycles)
	dl1Lat := int64(p.DL1Cycles)
	l2Lat := int64(p.L2Cycles)
	memLat := int64(p.MemCycles)
	redirectLat := p.MispredictRedirect()

	var act Activity
	frontend := int64(p.FrontendStages)

	var (
		redirect     int64
		lastFetch    int64
		lastDispatch int64
		lastIssue    int64
		lastRetire   int64
		prevTakenAt  int64 = -1
	)
	inOrder := cfg.InOrder
	mask = mask[:n-warm]

	for i := warm; i < n; i++ {
		in := &tr.Insts[i]
		mbits := mask[i-warm]

		// ---- Fetch ----
		f := lastFetch
		if redirect > f {
			f = redirect
		}
		if prevTakenAt >= 0 && f <= prevTakenAt {
			f = prevTakenAt + 1
			prevTakenAt = -1
		}
		f = fetchBW.earliest(f)
		if mbits&mIL1Miss != 0 {
			act.IL1Miss++
			stall := l2Lat
			if mbits&mIL2Miss != 0 {
				act.L2Miss++
				stall += memLat
			}
			f += il1Lat + stall
		}
		fetchBW.commit(f + 1)
		lastFetch = f

		switch in.Kind {
		case trace.OpInt:
			d := gpr.earliest(f + frontend)
			d = rsFX.earliest(d)
			if d < lastDispatch {
				d = lastDispatch
			}
			lastDispatch = d
			ready := d + 1
			if inOrder && lastIssue > ready {
				ready = lastIssue
			}
			if in.Dep1 > 0 {
				if c := complete[i-int(in.Dep1)]; c > ready {
					ready = c
				}
			}
			if in.Dep2 > 0 {
				if c := complete[i-int(in.Dep2)]; c > ready {
					ready = c
				}
			}
			issue := fuFX.bw(ready)
			lastIssue = issue
			act.Int++
			c := issue + IntLatency
			complete[i] = c
			rsFX.commit(issue)
			ret := c
			if ret < lastRetire {
				ret = lastRetire
			}
			ret = retireBW.bw(ret)
			lastRetire = ret
			gpr.commit(ret)

		case trace.OpFP:
			d := fpr.earliest(f + frontend)
			d = rsFP.earliest(d)
			if d < lastDispatch {
				d = lastDispatch
			}
			lastDispatch = d
			ready := d + 1
			if inOrder && lastIssue > ready {
				ready = lastIssue
			}
			if in.Dep1 > 0 {
				if c := complete[i-int(in.Dep1)]; c > ready {
					ready = c
				}
			}
			if in.Dep2 > 0 {
				if c := complete[i-int(in.Dep2)]; c > ready {
					ready = c
				}
			}
			issue := fuFP.bw(ready)
			lastIssue = issue
			act.FP++
			c := issue + FPLatency
			complete[i] = c
			rsFP.commit(issue)
			ret := c
			if ret < lastRetire {
				ret = lastRetire
			}
			ret = retireBW.bw(ret)
			lastRetire = ret
			fpr.commit(ret)

		case trace.OpLoad:
			d := gpr.earliest(f + frontend)
			d = lsq.earliest(d)
			if d < lastDispatch {
				d = lastDispatch
			}
			lastDispatch = d
			ready := d + 1
			if inOrder && lastIssue > ready {
				ready = lastIssue
			}
			if in.Dep1 > 0 {
				if c := complete[i-int(in.Dep1)]; c > ready {
					ready = c
				}
			}
			if in.Dep2 > 0 {
				if c := complete[i-int(in.Dep2)]; c > ready {
					ready = c
				}
			}
			issue := fuLS.bw(ready)
			lastIssue = issue
			act.Load++
			lat := dl1Lat
			if mbits&mDL1Miss != 0 {
				act.DL1Miss++
				lat += l2Lat
				if mbits&mDL2Miss != 0 {
					act.L2Miss++
					lat += memLat
				}
			}
			c := issue + lat
			complete[i] = c
			lsq.commit(c)
			ret := c
			if ret < lastRetire {
				ret = lastRetire
			}
			ret = retireBW.bw(ret)
			lastRetire = ret
			gpr.commit(ret)

		case trace.OpStore:
			d := sq.earliest(f + frontend)
			if d < lastDispatch {
				d = lastDispatch
			}
			lastDispatch = d
			ready := d + 1
			if inOrder && lastIssue > ready {
				ready = lastIssue
			}
			if in.Dep1 > 0 {
				if c := complete[i-int(in.Dep1)]; c > ready {
					ready = c
				}
			}
			if in.Dep2 > 0 {
				if c := complete[i-int(in.Dep2)]; c > ready {
					ready = c
				}
			}
			issue := fuLS.bw(ready)
			lastIssue = issue
			act.Store++
			if mbits&mDL1Miss != 0 {
				act.DL1Miss++
				if mbits&mDL2Miss != 0 {
					act.L2Miss++
				}
			}
			c := issue + StoreLatency
			complete[i] = c
			ret := c
			if ret < lastRetire {
				ret = lastRetire
			}
			ret = retireBW.bw(ret)
			lastRetire = ret
			sq.commit(ret)

		case trace.OpBranch:
			d := spr.earliest(f + frontend)
			d = rsBR.earliest(d)
			if d < lastDispatch {
				d = lastDispatch
			}
			lastDispatch = d
			ready := d + 1
			if inOrder && lastIssue > ready {
				ready = lastIssue
			}
			if in.Dep1 > 0 {
				if c := complete[i-int(in.Dep1)]; c > ready {
					ready = c
				}
			}
			if in.Dep2 > 0 {
				if c := complete[i-int(in.Dep2)]; c > ready {
					ready = c
				}
			}
			issue := fuBR.bw(ready)
			lastIssue = issue
			act.Branch++
			c := issue + BranchLatency
			complete[i] = c
			rsBR.commit(issue)
			if mbits&mMispredict != 0 {
				act.BranchMispredicts++
				if r := c + redirectLat; r > redirect {
					redirect = r
				}
			} else if in.Taken {
				prevTakenAt = f
			}
			ret := c
			if ret < lastRetire {
				ret = lastRetire
			}
			ret = retireBW.bw(ret)
			lastRetire = ret
			spr.commit(ret)
		}
	}

	// Access and issue totals are structural — one I-fetch and one issue
	// per instruction, one D-access per memory op, one L2 access per L1
	// miss, one memory access per L2 miss, one BHT lookup per branch — so
	// replay derives them instead of counting them in the loop.
	timed := int64(n - warm)
	act.Issued = timed
	act.IL1Access = timed
	act.DL1Access = act.Load + act.Store
	act.L2Access = act.IL1Miss + act.DL1Miss
	act.MemAccess = act.L2Miss
	act.BranchLookups = act.Branch

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
