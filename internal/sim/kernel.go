package sim

import "repro/internal/trace"

// Outcome-mask bits, one byte per timed-region instruction. The caches
// and the branch history table are private structures driven in program
// order by an immutable trace, so for a fixed (trace, geometry) warm key
// their hit/miss/mispredict outcomes are identical across every
// configuration — latencies, width, depth, pools and queues change when
// events cost, never whether they occur. Computing the outcomes once per
// key (outcomes) lets every run replay them without simulating the
// hierarchy at all (timedReplay).
const (
	mIL1Miss    byte = 1 << iota // instruction fetch missed the IL1
	mIL2Miss                     // ...and the L2 (memory fill)
	mDL1Miss                     // load/store missed the DL1
	mDL2Miss                     // ...and the L2 (memory fill)
	mMispredict                  // branch was mispredicted
)

// outcomes computes a warm key's outcome mask: it reshapes and warms the
// scratch's caches and branch history table exactly as the seed path
// does, then walks the timed region through them in program order with
// no timing, writing each instruction's m* bits into mask (one byte per
// timed instruction). Cache and predictor state never depends on when
// an access happens, only on the order of accesses, so these are the
// outcomes every configuration sharing the key meets in timed.
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
func (s *Scratch) outcomes(p Params, tr *trace.Trace, mask []byte) error {
	if err := s.configure(p); err != nil {
		return err
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

	for i := warm; i < n; i++ {
		in := &tr.Insts[i]
		var m byte
		blk := in.PC >> il1Shift
		if int64(blk) == lastIBlk {
			il1.Rehit(blk & il1Mask)
		} else {
			lastIBlk = int64(blk)
			if !il1.AccessDirect(in.PC) {
				m = mIL1Miss
				if !l2Access(in.PC) {
					m |= mIL2Miss
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
				if !l2Access(in.Addr) {
					m |= mDL2Miss
				}
			}
		case trace.OpBranch:
			if bht.Update(in.PC, in.Taken) {
				m |= mMispredict
			}
		}
		mask[i-warm] = m
	}
	return nil
}

// timedReplay is the Runner's cycle-accounting kernel. It computes
// exactly what timed computes — the golden tests in fast_test.go and the
// eval/core layers pin the two bit-for-bit — but consumes an outcome
// mask instead of simulating the caches and the branch predictor, so a
// run touches no hierarchy state at all: no warmup, just latency
// arithmetic over the resource rings. mask holds one byte per timed
// instruction as written by outcomes; because outcomes are
// configuration-independent within a warm key (see the m* constants),
// replaying them under different latencies, widths, depths, pools and
// queues is bit-identical to simulating them.
//
// The loop is restructured for speed: one switch on the instruction kind
// selects a straight-line block per kind, replacing the reference
// kernel's routing tables, nil checks and second execute switch with
// direct ring references, and bandwidth-style rings (functional units,
// retire slots) fuse their earliest/commit pair into one slot-array
// touch via ring.bw. The fetch ring cannot fuse: an I-cache miss stall
// lands between its earliest and its commit. The reference kernel stays
// the plain transcription of the pipeline model; this one is allowed to
// be clever precisely because timed is not.
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
