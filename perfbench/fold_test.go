package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"testing"
)

func TestFuncLayerMapsEveryLayer(t *testing.T) {
	cases := map[string]string{
		"repro/internal/des.(*Simulator).RunUntil":                                          "des",
		"repro/internal/network.(*Network).Broadcast":                                       "network",
		"repro/internal/radio.Precomp.Reaches":                                              "network",
		"repro/internal/mobility.(*Waypoint).Position":                                      "mobility",
		"repro/internal/georoute.(*Router).onPacket":                                        "georoute",
		"repro/internal/cluster.(*Manager).Elect":                                           "cluster",
		"repro/internal/core.(*Backbone).BeaconRound.func1":                                 "core",
		"repro/internal/membership.(*Service).MNTRound":                                     "membership",
		"repro/internal/multicast.(*Service).Send":                                          "multicast",
		"repro/internal/route.(*Memo[go.shape.struct { repro/internal/qos.slot int }]).Get": "route",
		"repro/internal/qos.(*Manager).Open":                                                "qos",
		"repro/internal/scenario.(*scriptRun).onDeliver":                                    "scenario",
		"runtime.mallocgc":                             "runtime",
		"runtime/internal/atomic.Load":                 "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall": "runtime",
		// Helpers and the standard library own no time of their own.
		"repro/internal/geom.Point.Dist2": "",
		"sort.Slice":                      "",
		"main.main":                       "",
	}
	seen := map[string]bool{}
	for fn, want := range cases {
		got := funcLayer(fn)
		if got != want {
			t.Errorf("funcLayer(%q) = %q, want %q", fn, got, want)
		}
		seen[got] = true
	}
	for _, l := range layers {
		if !seen[l] {
			t.Errorf("layer %q has no mapped function in the table", l)
		}
	}
}

// protoBuilder writes the protocol-buffer subset a pprof profile uses.
type protoBuilder struct{ bytes.Buffer }

func (b *protoBuilder) varint(num int, v uint64) {
	b.uvarint(uint64(num)<<3 | 0)
	b.uvarint(v)
}

func (b *protoBuilder) bytesField(num int, p []byte) {
	b.uvarint(uint64(num)<<3 | 2)
	b.uvarint(uint64(len(p)))
	b.Write(p)
}

func (b *protoBuilder) uvarint(v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	b.Write(tmp[:binary.PutUvarint(tmp[:], v)])
}

func packed(vs ...uint64) []byte {
	var b protoBuilder
	for _, v := range vs {
		b.uvarint(v)
	}
	return b.Bytes()
}

// syntheticProfile builds a gzipped profile whose locations each hold
// the given function names (innermost first) and whose samples are
// (location ids leaf first, cpu ns).
func syntheticProfile(t *testing.T, funcs []string, locs [][]uint64, samples []struct {
	locs []uint64
	ns   uint64
}) []byte {
	t.Helper()
	var p protoBuilder
	strs := append([]string{""}, funcs...)
	for _, s := range samples {
		var sb protoBuilder
		sb.bytesField(1, packed(s.locs...))
		sb.bytesField(2, packed(1, s.ns))
		p.bytesField(2, sb.Bytes())
	}
	for i, fids := range locs {
		var lb protoBuilder
		lb.varint(1, uint64(i+1))
		for _, fid := range fids {
			var line protoBuilder
			line.varint(1, fid)
			line.varint(2, 10)
			lb.bytesField(4, line.Bytes())
		}
		p.bytesField(4, lb.Bytes())
	}
	for i := range funcs {
		var fb protoBuilder
		fb.varint(1, uint64(i+1))
		fb.varint(2, uint64(i+1)) // string index; strs[0] is ""
		p.bytesField(5, fb.Bytes())
	}
	for _, s := range strs {
		p.bytesField(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestFoldAttributesToInnermostLayer(t *testing.T) {
	funcs := []string{
		"sort.insertionSort",                          // 1
		"repro/internal/geom.Point.Dist2",             // 2
		"repro/internal/network.(*Network).Broadcast", // 3
		"runtime.mallocgc",                            // 4
		"repro/internal/georoute.(*Router).onPacket",  // 5
		"main.main", // 6
		"repro/internal/des.(*Simulator).RunUntil", // 7
	}
	locs := [][]uint64{
		{1},    // loc 1: std library leaf
		{2, 3}, // loc 2: geom inlined into network
		{4},    // loc 3: allocator
		{5},    // loc 4: georoute
		{6},    // loc 5: benchmark main
		{7},    // loc 6: kernel
	}
	samples := []struct {
		locs []uint64
		ns   uint64
	}{
		{[]uint64{1, 2, 6, 5}, 4e6}, // sort <- geom/network (inlined) -> network
		{[]uint64{3, 4, 6}, 2e6},    // mallocgc under georoute -> runtime
		{[]uint64{4, 6, 5}, 3e6},    // georoute
		{[]uint64{1, 5}, 1e6},       // sort under main only -> other
	}
	got, total, err := fold(syntheticProfile(t, funcs, locs, samples))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"network": 4, "runtime": 2, "georoute": 3, "other": 1}
	for _, l := range append(layers, "other") {
		if math.Abs(got[l]-want[l]) > 1e-9 {
			t.Errorf("%s = %v ms, want %v", l, got[l], want[l])
		}
	}
	if total != 10 {
		t.Errorf("total = %v ms, want 10", total)
	}
}

func TestFoldRejectsGarbage(t *testing.T) {
	if _, _, err := fold([]byte("not a profile")); err == nil {
		t.Fatal("fold accepted a non-gzip input")
	}
}
