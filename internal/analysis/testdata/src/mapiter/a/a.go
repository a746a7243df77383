// Package a exercises mapiter: map iteration whose results escape in an
// order-sensitive way must be flagged unless the collected slice is
// sorted in the same function (the bench.PlatformNames blessed shape), and
// commutative aggregation must stay silent.
package a

import (
	"fmt"
	"io"
	"slices"
	"sort"
)

// BadCollect returns rows in randomized map order.
func BadCollect(m map[string]int) []string {
	var rows []string
	for k := range m { // want `map iteration collects into rows without a sort`
		rows = append(rows, k)
	}
	return rows
}

// BadEmit writes lines in randomized map order.
func BadEmit(w io.Writer, m map[string]int) {
	for k, v := range m { // want `map iteration order reaches fmt.Fprintf`
		fmt.Fprintf(w, "%s=%d\n", k, v)
	}
}

// BadReturn returns whichever key iteration happens to visit first.
func BadReturn(m map[string]int) string {
	for k := range m { // want `map iteration order reaches a return`
		return k
	}
	return ""
}

// BadSend streams values in randomized map order.
func BadSend(ch chan<- int, m map[string]int) {
	for _, v := range m { // want `map iteration order reaches a channel send`
		ch <- v
	}
}

// GoodSorted is the blessed shape: collect, then sort, then use.
func GoodSorted(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// GoodSlicesSorted blesses via the slices package too.
func GoodSlicesSorted(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// GoodSum is commutative aggregation: no order-sensitive escape.
func GoodSum(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// GoodExists returns only constants from inside the loop.
func GoodExists(m map[string]int, want int) bool {
	for _, v := range m {
		if v == want {
			return true
		}
	}
	return false
}

// GoodInvert writes into another map: still unordered, still fine.
func GoodInvert(m map[string]int) map[int]string {
	out := make(map[int]string, len(m))
	for k, v := range m {
		out[v] = k
	}
	return out
}
