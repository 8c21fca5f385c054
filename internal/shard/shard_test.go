package shard

import (
	"errors"
	"path/filepath"
	"testing"

	"repro/internal/ckpt"
)

// TestOfCoversDomain checks that Plan tiles [0, total) exactly for a
// spread of domain sizes and shard counts, including n > total (empty
// shards) and uneven remainders.
func TestOfCoversDomain(t *testing.T) {
	for _, total := range []int{0, 1, 2, 7, 100, 262500, 375000} {
		for _, n := range []int{1, 2, 3, 4, 7, 13, 64, 262501} {
			ranges := Plan(total, n)
			cursor := 0
			minLen, maxLen := total+1, -1
			for i, r := range ranges {
				if r.Lo != cursor {
					t.Fatalf("Plan(%d,%d) shard %d starts at %d, want %d", total, n, i, r.Lo, cursor)
				}
				if r.Len() < 0 {
					t.Fatalf("Plan(%d,%d) shard %d has negative length", total, n, i)
				}
				cursor = r.Hi
				if r.Len() < minLen {
					minLen = r.Len()
				}
				if r.Len() > maxLen {
					maxLen = r.Len()
				}
			}
			if cursor != total {
				t.Fatalf("Plan(%d,%d) covers [0,%d), want [0,%d)", total, n, cursor, total)
			}
			if maxLen-minLen > 1 {
				t.Fatalf("Plan(%d,%d) shard sizes range %d..%d, want spread <= 1", total, n, minLen, maxLen)
			}
		}
	}
}

// TestOfMoreShardsThanWork pins the n > total case: every index still
// lands somewhere and the surplus shards are empty, not invalid.
func TestOfMoreShardsThanWork(t *testing.T) {
	ranges := Plan(3, 5)
	nonEmpty := 0
	for _, r := range ranges {
		if !r.IsEmpty() {
			nonEmpty++
		}
	}
	if nonEmpty != 3 {
		t.Fatalf("Plan(3,5): %d non-empty shards, want 3 (%v)", nonEmpty, ranges)
	}
}

// TestOfUnevenRemainder pins the remainder distribution: 10 indices
// over 4 shards must split 2/3/2/3 (the i*total/n rule), never 3/3/3/1.
func TestOfUnevenRemainder(t *testing.T) {
	got := Plan(10, 4)
	want := []Range{{0, 2}, {2, 5}, {5, 7}, {7, 10}}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Plan(10,4) = %v, want %v", got, want)
		}
	}
}

func TestOfPanicsOnBadSpec(t *testing.T) {
	for _, bad := range []struct{ total, i, n int }{
		{-1, 0, 1}, {10, -1, 2}, {10, 2, 2}, {10, 0, 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Of(%d,%d,%d) did not panic", bad.total, bad.i, bad.n)
				}
			}()
			Of(bad.total, bad.i, bad.n)
		}()
	}
}

func TestParseSpec(t *testing.T) {
	i, n, err := ParseSpec("2/4")
	if err != nil || i != 2 || n != 4 {
		t.Fatalf("ParseSpec(2/4) = %d,%d,%v", i, n, err)
	}
	for _, bad := range []string{"", "3", "a/b", "4/4", "-1/4", "0/0", "1/-2"} {
		if _, _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

func TestSegments(t *testing.T) {
	groups := []string{"gzip", "mcf", "twolf"}
	// Range spanning the tail of gzip, all of mcf, the head of twolf.
	got := Segments(groups, 10, Range{Lo: 7, Hi: 23})
	want := []Segment{{"gzip", 0, 7, 10}, {"mcf", 1, 0, 10}, {"twolf", 2, 0, 3}}
	if len(got) != len(want) {
		t.Fatalf("Segments = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Segments = %v, want %v", got, want)
		}
	}
	if s := Segments(groups, 10, Range{Lo: 5, Hi: 5}); s != nil {
		t.Fatalf("empty range yielded %v", s)
	}
}

func TestMergeColumns(t *testing.T) {
	mk := func(lo, hi int) Piece {
		p := Piece{Lo: lo, Hi: hi, BIPS: make([]float64, hi-lo), Watts: make([]float64, hi-lo)}
		for i := range p.BIPS {
			p.BIPS[i] = float64(lo + i)
			p.Watts[i] = float64(lo+i) * 2
		}
		return p
	}
	// Out-of-order pieces with an empty one merge to identity columns.
	bips, watts, err := MergeColumns(10, []Piece{mk(4, 10), mk(0, 4), mk(7, 7)})
	if err != nil {
		t.Fatalf("MergeColumns: %v", err)
	}
	for i := 0; i < 10; i++ {
		if bips[i] != float64(i) || watts[i] != float64(i)*2 {
			t.Fatalf("merged[%d] = %g/%g", i, bips[i], watts[i])
		}
	}

	for _, tc := range []struct {
		name   string
		pieces []Piece
		want   error
	}{
		{"gap", []Piece{mk(0, 4), mk(5, 10)}, ErrCoverage},
		{"overlap", []Piece{mk(0, 6), mk(4, 10)}, ErrCoverage},
		{"short", []Piece{mk(0, 4), mk(4, 9)}, ErrCoverage},
		{"outside", []Piece{mk(0, 11)}, ErrCoverage},
		{"shape", []Piece{{Lo: 0, Hi: 10, BIPS: make([]float64, 9), Watts: make([]float64, 10)}}, ErrShape},
	} {
		if _, _, err := MergeColumns(10, tc.pieces); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestIdentityMismatchRejected pins the contract the whole layer leans
// on: a checkpoint written under one shard identity cannot be loaded
// under another — wrong shard index, wrong shard count, or wrong domain
// fingerprint all fail with ckpt.ErrIdentity, the typed refusal.
func TestIdentityMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "shard.ckpt")
	id := ID{Domain: "dataset", Space: 0xabcdef, Index: 0, Count: 4}
	payload := map[string]int{"completed": 7}
	if err := ckpt.Save(path, "run;"+id.String(), payload); err != nil {
		t.Fatalf("save: %v", err)
	}

	var out map[string]int
	if err := ckpt.Load(path, "run;"+id.String(), &out); err != nil {
		t.Fatalf("load with matching identity: %v", err)
	}

	for _, wrong := range []ID{
		{Domain: "dataset", Space: 0xabcdef, Index: 1, Count: 4}, // other shard
		{Domain: "dataset", Space: 0xabcdef, Index: 0, Count: 8}, // other partition
		{Domain: "dataset", Space: 0x123456, Index: 0, Count: 4}, // other space
		{Domain: "other", Space: 0xabcdef, Index: 0, Count: 4},   // other domain
	} {
		err := ckpt.Load(path, "run;"+wrong.String(), &out)
		if !errors.Is(err, ckpt.ErrIdentity) {
			t.Errorf("load as %v: err = %v, want ckpt.ErrIdentity", wrong, err)
		}
	}
}
