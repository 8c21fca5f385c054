package shard

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fault"
)

func validBeacon() Beacon {
	return Beacon{
		Version: BeaconVersion,
		Domain:  "dataset",
		Index:   1,
		Count:   4,
		Bench:   "gzip",
		Lo:      1000,
		Hi:      2000,
		Cursor:  1500,
		Seq:     7,
		Time:    1754000000000000000,
		PID:     4242,
	}
}

func TestBeaconRoundTrip(t *testing.T) {
	dir := t.TempDir()
	b := validBeacon()
	path := BeaconPath(dir, b.Domain, b.Index, b.Count)
	if err := WriteBeacon(path, b); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBeacon(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != b {
		t.Fatalf("round trip changed beacon:\n got %+v\nwant %+v", got, b)
	}
}

func TestBeaconPathNames(t *testing.T) {
	got := BeaconPath("ckpts", "dataset", 2, 8)
	want := filepath.Join("ckpts", "beacon-dataset-2of8.json")
	if got != want {
		t.Fatalf("BeaconPath = %q, want %q", got, want)
	}
}

func TestDecodeBeaconRejectsInvalid(t *testing.T) {
	// Bypass EncodeBeacon's validation by marshaling directly, so the
	// decoder is what rejects the damage.
	mut := func(f func(*Beacon)) []byte {
		b := validBeacon()
		f(&b)
		raw, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	cases := map[string][]byte{
		"wrong version":   mut(func(b *Beacon) { b.Version = 2 }),
		"empty domain":    mut(func(b *Beacon) { b.Domain = "" }),
		"long domain":     mut(func(b *Beacon) { b.Domain = strings.Repeat("d", 65) }),
		"long bench":      mut(func(b *Beacon) { b.Bench = strings.Repeat("b", 65) }),
		"zero count":      mut(func(b *Beacon) { b.Count = 0 }),
		"index past n":    mut(func(b *Beacon) { b.Index = 4 }),
		"inverted range":  mut(func(b *Beacon) { b.Lo, b.Hi = 2000, 1000; b.Cursor = 2000 }),
		"cursor below lo": mut(func(b *Beacon) { b.Cursor = 999 }),
		"cursor past hi":  mut(func(b *Beacon) { b.Cursor = 2001 }),
		"negative seq":    mut(func(b *Beacon) { b.Seq = -1 }),
		"negative pid":    mut(func(b *Beacon) { b.PID = -1 }),
		"trailing junk":   append(mustEncode(t, validBeacon()), []byte("{}")...),
		"unknown field":   []byte(`{"version":1,"domain":"dataset","index":0,"count":1,"lo":0,"hi":1,"cursor":0,"seq":0,"time_unix_nano":0,"pid":1,"extra":true}`),
		"oversized":       append(mustEncode(t, validBeacon()), make([]byte, MaxBeaconBytes)...),
		"not json":        []byte("beacon?"),
	}
	for name, data := range cases {
		if _, err := DecodeBeacon(data); err == nil {
			t.Errorf("%s: DecodeBeacon accepted %q", name, data)
		}
	}
}

func mustEncode(t *testing.T, b Beacon) []byte {
	t.Helper()
	data, err := EncodeBeacon(b)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestProgressed(t *testing.T) {
	b := validBeacon()
	if b.Progressed(b) {
		t.Fatal("identical beacon counted as progress")
	}
	for name, f := range map[string]func(*Beacon){
		"seq":    func(n *Beacon) { n.Seq++ },
		"cursor": func(n *Beacon) { n.Cursor++ },
		"bench":  func(n *Beacon) { n.Bench = "mcf" },
	} {
		next := b
		f(&next)
		if !next.Progressed(b) {
			t.Errorf("%s change not counted as progress", name)
		}
	}
	// A wall-timestamp-only change is NOT progress: staleness must come
	// from content the worker can only produce by doing work, and Seq
	// already covers "alive but same cursor" rewrites.
	next := b
	next.Time++
	if next.Progressed(b) {
		t.Fatal("timestamp-only change counted as progress")
	}
}

func TestWriteBeaconFaultSite(t *testing.T) {
	prev := fault.Current()
	fault.Enable(&fault.Plan{Rules: []fault.Rule{
		{Site: "shard.beacon", Kind: fault.KindFatal, Every: 1, Count: 1},
	}})
	t.Cleanup(func() { fault.Enable(prev) })

	path := filepath.Join(t.TempDir(), "b.json")
	if err := WriteBeacon(path, validBeacon()); err == nil {
		t.Fatal("injected beacon-write fault was swallowed")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("failed beacon write left a file behind")
	}
	// The count=1 rule is spent; the next write succeeds.
	if err := WriteBeacon(path, validBeacon()); err != nil {
		t.Fatal(err)
	}
}
