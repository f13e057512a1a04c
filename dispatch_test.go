package preexec

import (
	"fmt"
	"slices"
	"testing"
)

// TestDispatchOrder pins Sweep.Run's cell dispatch order: benchmarks in
// blocks as wide as the worker pool, point-major within a block.
func TestDispatchOrder(t *testing.T) {
	cases := []struct {
		nBench, nPoint, workers int
		want                    []int // nil: checked by the properties only
	}{
		{nBench: 3, nPoint: 4, workers: 1},
		{nBench: 3, nPoint: 4, workers: 0},
		{nBench: 1, nPoint: 5, workers: 4},
		{nBench: 2, nPoint: 2, workers: 2, want: []int{0, 2, 1, 3}},
		{nBench: 4, nPoint: 1, workers: 2, want: []int{0, 1, 2, 3}},
		{nBench: 3, nPoint: 2, workers: 8, want: []int{0, 2, 4, 1, 3, 5}},
		{nBench: 10, nPoint: 8, workers: 2},
		// Ragged: blocks {0,1,2} {3,4,5} {6,7,8} {9}.
		{nBench: 10, nPoint: 3, workers: 3, want: []int{
			0, 3, 6, 1, 4, 7, 2, 5, 8,
			9, 12, 15, 10, 13, 16, 11, 14, 17,
			18, 21, 24, 19, 22, 25, 20, 23, 26,
			27, 28, 29,
		}},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%dx%d/w%d", tc.nBench, tc.nPoint, tc.workers), func(t *testing.T) {
			got := dispatchOrder(tc.nBench, tc.nPoint, tc.workers)
			n := tc.nBench * tc.nPoint
			if sorted := slices.Sorted(slices.Values(got)); len(got) != n ||
				!slices.Equal(sorted, identity(n)) {
				t.Fatalf("order %v is not a permutation of [0, %d)", got, n)
			}
			if tc.want != nil && !slices.Equal(got, tc.want) {
				t.Fatalf("order = %v, want %v", got, tc.want)
			}
			if (tc.workers <= 1 || tc.nBench == 1) && !slices.Equal(got, identity(n)) {
				t.Fatalf("order = %v, want grid order", got)
			}
			w := max(tc.workers, 1)
			for k := 1; k < n; k++ {
				prevBench, bench := got[k-1]/tc.nPoint, got[k]/tc.nPoint
				prevBlock, block := prevBench/w, bench/w
				if block < prevBlock {
					t.Fatalf("entry %d returns to block %d after block %d", k, block, prevBlock)
				}
				blockSize := min(w, tc.nBench-block*w)
				if block == prevBlock && blockSize > 1 && bench == prevBench {
					t.Fatalf("entries %d and %d both start benchmark %d inside one block", k-1, k, bench)
				}
			}
		})
	}
}

func identity(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}
