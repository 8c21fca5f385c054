// Package shard partitions the dataset build — the repository's one
// simulation-bound work domain, a (benchmark × config-index) flat range —
// into deterministic contiguous shards that independent processes
// compute and a coordinator merges back into byte-identical
// single-process results.
//
// The partition is pure arithmetic: shard i of n over a domain of size
// total owns the half-open range [i*total/n, (i+1)*total/n), so every
// process — workers, the merger, tests — derives the same handout from
// (total, i, n) alone, with no shard table to distribute or keep
// consistent. Each shard's checkpoint is keyed by an ID string that
// bakes in the domain fingerprint and i/n, so internal/ckpt refuses to
// resume a shard file written for a different partition or space.
package shard

import (
	"errors"
	"fmt"
	"sort"
)

// Range is a half-open interval [Lo, Hi) of flat work indices.
type Range struct {
	Lo, Hi int
}

// Len returns the number of indices in the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// IsEmpty reports whether the range holds no work.
func (r Range) IsEmpty() bool { return r.Hi <= r.Lo }

// String renders the range as "[lo,hi)".
func (r Range) String() string { return fmt.Sprintf("[%d,%d)", r.Lo, r.Hi) }

// Of returns shard i of n over a domain of total indices: the half-open
// range [i*total/n, (i+1)*total/n). Shard sizes differ by at most one,
// every index belongs to exactly one shard, and shards are ordered: all
// of shard i precedes all of shard i+1. When n exceeds total, the last
// n-total shards are empty — still valid shards, with nothing to do.
// It panics when total is negative or i/n is not a valid shard spec.
func Of(total, i, n int) Range {
	if total < 0 {
		panic(fmt.Sprintf("shard: negative domain size %d", total))
	}
	if n <= 0 || i < 0 || i >= n {
		panic(fmt.Sprintf("shard: invalid shard %d/%d", i, n))
	}
	return Range{Lo: i * total / n, Hi: (i + 1) * total / n}
}

// Plan returns all n shards of Of in order.
func Plan(total, n int) []Range {
	out := make([]Range, n)
	for i := range out {
		out[i] = Of(total, i, n)
	}
	return out
}

// ParseSpec parses a "i/n" shard specification (as passed to
// `dse -shard`), requiring 0 <= i < n.
func ParseSpec(spec string) (i, n int, err error) {
	if _, err := fmt.Sscanf(spec, "%d/%d", &i, &n); err != nil {
		return 0, 0, fmt.Errorf("shard: spec %q is not of the form i/n", spec)
	}
	if n <= 0 || i < 0 || i >= n {
		return 0, 0, fmt.Errorf("shard: spec %q needs 0 <= i < n", spec)
	}
	return i, n, nil
}

// ID names one shard of a work domain. Its String form is appended to
// the run identity when keying internal/ckpt envelopes, so a shard file
// can only resume the same shard of the same partition over the same
// domain: restore a 0/4 file into a 0/8 run (or into a different design
// space) and ckpt.Load fails with ErrIdentity instead of silently
// merging mismatched ranges.
type ID struct {
	Domain string // work-domain name, e.g. "dataset"
	Space  uint64 // fingerprint of the domain (space hash, sample-set hash)
	Index  int    // shard index in [0, Count)
	Count  int    // total shards in the partition
}

// String renders the identity fragment, e.g.
// "domain=dataset;space=00c0ffee00c0ffee;shard=0/4".
func (id ID) String() string {
	return fmt.Sprintf("domain=%s;space=%016x;shard=%d/%d",
		id.Domain, id.Space, id.Index, id.Count)
}

// Segment is the part of a shard's flat range that falls inside one
// group of a grouped domain (one benchmark of a bench-major dataset
// build): indices [Lo, Hi) within that group.
type Segment struct {
	Group string
	Index int // position of the group in the domain's group list
	Lo    int // index within the group
	Hi    int
}

// Segments splits a flat range over a bench-major domain — group g owns
// flat indices [g*groupSize, (g+1)*groupSize) — into per-group
// sub-ranges, in group order. Groups the range never touches are
// omitted; an empty range yields nil.
func Segments(groups []string, groupSize int, r Range) []Segment {
	if groupSize <= 0 {
		panic(fmt.Sprintf("shard: non-positive group size %d", groupSize))
	}
	var out []Segment
	for g, name := range groups {
		base := g * groupSize
		lo, hi := r.Lo-base, r.Hi-base
		if lo < 0 {
			lo = 0
		}
		if hi > groupSize {
			hi = groupSize
		}
		if lo < hi {
			out = append(out, Segment{Group: name, Index: g, Lo: lo, Hi: hi})
		}
	}
	return out
}

// Merge errors. ErrCoverage means the pieces do not tile the domain
// exactly (a gap, an overlap, or a piece outside [0, total)); ErrShape
// means a piece's column lengths disagree with its declared range.
var (
	ErrCoverage = errors.New("shard: pieces do not tile the domain exactly")
	ErrShape    = errors.New("shard: piece columns do not match its range")
)

// Piece is one shard's contribution to a merged column pair: the
// response values for flat indices [Lo, Hi).
type Piece struct {
	Lo, Hi      int
	BIPS, Watts []float64
}

// MergeColumns reassembles per-shard column pieces into full-domain
// columns, verifying that the pieces tile [0, total) exactly — every
// index covered once, no gaps, no overlaps — and that each piece's
// column lengths match its range. The merge is pure placement: values
// are copied to their absolute indices, so the result is byte-identical
// to a single process computing the whole domain, whatever order the
// pieces arrive in. Empty pieces are permitted and contribute nothing.
func MergeColumns(total int, pieces []Piece) (bips, watts []float64, err error) {
	ordered := make([]Piece, 0, len(pieces))
	for _, p := range pieces {
		if p.Lo > p.Hi || p.Lo < 0 || p.Hi > total {
			return nil, nil, fmt.Errorf("%w: piece [%d,%d) outside [0,%d)", ErrCoverage, p.Lo, p.Hi, total)
		}
		if len(p.BIPS) != p.Hi-p.Lo || len(p.Watts) != p.Hi-p.Lo {
			return nil, nil, fmt.Errorf("%w: piece [%d,%d) carries %d/%d values",
				ErrShape, p.Lo, p.Hi, len(p.BIPS), len(p.Watts))
		}
		if p.Lo < p.Hi {
			ordered = append(ordered, p)
		}
	}
	sort.Slice(ordered, func(a, b int) bool { return ordered[a].Lo < ordered[b].Lo })
	cursor := 0
	for _, p := range ordered {
		if p.Lo != cursor {
			return nil, nil, fmt.Errorf("%w: index %d expected, piece starts at %d", ErrCoverage, cursor, p.Lo)
		}
		cursor = p.Hi
	}
	if cursor != total {
		return nil, nil, fmt.Errorf("%w: coverage ends at %d of %d", ErrCoverage, cursor, total)
	}
	bips = make([]float64, total)
	watts = make([]float64, total)
	for _, p := range ordered {
		copy(bips[p.Lo:p.Hi], p.BIPS)
		copy(watts[p.Lo:p.Hi], p.Watts)
	}
	return bips, watts, nil
}
