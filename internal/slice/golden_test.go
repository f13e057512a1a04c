package slice_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"preexec/internal/program"
	"preexec/internal/sampling"
	"preexec/internal/slice"
	"preexec/internal/workload"
	"preexec/synth"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/forest_golden.txt from the current profiler")

const forestGoldenPath = "testdata/forest_golden.txt"

// goldenWindows are the profiling windows the forest golden covers: the
// single warm-up + measure window, regioned profiling at a narrow slicing
// scope, and cyclic sampling (which leaves gaps in the tracker's Seq
// numbering).
var goldenWindows = []struct {
	name string
	opts slice.ProfileOptions
}{
	{"default", slice.ProfileOptions{WarmInsts: 10_000, MaxInsts: 40_000}},
	{"regions", slice.ProfileOptions{WarmInsts: 10_000, MaxInsts: 60_000, RegionInsts: 20_000, Scope: 256}},
	{"sampling", slice.ProfileOptions{MaxInsts: 30_000,
		Sampling: &sampling.Schedule{OffInsts: 4_000, WarmInsts: 6_000, OnInsts: 10_000}}},
}

var goldenMaxSlice = []int{4, 8, 16, 32, 64}

// projectFrom are the profile lengths whose forests the golden also
// projects to every shorter golden length: the engine's profile floor (the
// default p-thread length) and the longest golden length.
var projectFrom = []int{32, 64}

// goldenPrograms returns the ten paper workloads followed by the synth zoo.
func goldenPrograms(t *testing.T) []*program.Program {
	t.Helper()
	var progs []*program.Program
	for _, w := range workload.All() {
		progs = append(progs, w.Build(1))
	}
	for _, spec := range synth.Zoo() {
		p, err := synth.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	return progs
}

// TestForestGolden pins the profiler's output byte for byte: for every
// program × MaxSlice × window it hashes the JSON of the returned regions
// (slice-tree forests, trigger counts and region bounds) and compares the
// hash against the checked-in table. Any change to backward slicing or
// slice-tree construction that alters a single node shows up here.
// Projections of the profiles in projectFrom to every shorter length must
// hash to the same lines and deep-equal the direct profiles, record lows
// included. Regenerate with `go test ./internal/slice -run TestForestGolden
// -update` only for an intentional model change.
func TestForestGolden(t *testing.T) {
	var got, projected strings.Builder
	line := func(b *strings.Builder, name string, ms int, regions []slice.Region) {
		raw, err := json.Marshal(regions)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(b, "%s/maxslice=%d %x\n", name, ms, sha256.Sum256(raw))
	}
	for _, p := range goldenPrograms(t) {
		for _, win := range goldenWindows {
			name := p.Name + "/" + win.name
			direct := map[int][]slice.Region{}
			for _, ms := range goldenMaxSlice {
				opts := win.opts
				opts.MaxSlice = ms
				regions, err := slice.Profile(p, opts)
				if err != nil {
					t.Fatalf("%s/%d: %v", name, ms, err)
				}
				direct[ms] = regions
				line(&got, name, ms, regions)
			}
			for _, from := range projectFrom {
				for _, ms := range goldenMaxSlice {
					if ms > from {
						continue
					}
					regions := slice.ProjectRegions(direct[from], ms)
					if !reflect.DeepEqual(regions, direct[ms]) {
						t.Errorf("%s: maxslice=%d profile projected to %d differs from the direct profile", name, from, ms)
					}
					line(&projected, name, ms, regions)
				}
			}
		}
	}
	if *updateGolden {
		if err := os.WriteFile(forestGoldenPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(forestGoldenPath)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	wantLines := strings.Split(string(want), "\n")
	inTable := map[string]bool{}
	for _, l := range wantLines {
		inTable[l] = true
	}
	for _, l := range strings.Split(strings.TrimSuffix(projected.String(), "\n"), "\n") {
		if !inTable[l] {
			t.Errorf("projected forest not in golden: %s", l)
		}
	}
	if bytes.Equal(want, []byte(got.String())) {
		return
	}
	gotLines := strings.Split(got.String(), "\n")
	if len(wantLines) != len(gotLines) {
		t.Fatalf("golden has %d lines, profiler produced %d", len(wantLines), len(gotLines))
	}
	for i := range wantLines {
		if wantLines[i] != gotLines[i] {
			t.Errorf("forest changed:\n  want %s\n  got  %s", wantLines[i], gotLines[i])
		}
	}
}
