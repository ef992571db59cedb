package linalg

import (
	"math/rand"
	"testing"
)

func TestReduceTreeMatchesSum(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 16, 33} {
		parts := make([]Vector, n)
		want := NewVector(4)
		for i := range parts {
			parts[i] = NewVector(4)
			for j := range parts[i] {
				parts[i][j] = rng.NormFloat64()
			}
			want.Add(parts[i])
		}
		got := ReduceTree(parts)
		if n == 0 {
			if got != nil {
				t.Fatalf("n=0: expected nil, got %v", got)
			}
			continue
		}
		if !got.Equal(want, 1e-12) {
			t.Fatalf("n=%d: tree reduce %v differs from sum %v", n, got, want)
		}
	}
}

// TestReduceTreeDeterministic: reducing the same partials must be bitwise
// reproducible — the guarantee the parallel executor builds on.
func TestReduceTreeDeterministic(t *testing.T) {
	build := func() []Vector {
		rng := rand.New(rand.NewSource(9))
		parts := make([]Vector, 13)
		for i := range parts {
			parts[i] = NewVector(8)
			for j := range parts[i] {
				parts[i][j] = rng.NormFloat64() * 1e3
			}
		}
		return parts
	}
	a := ReduceTree(build())
	b := ReduceTree(build())
	if !a.Equal(b, 0) {
		t.Fatal("tree reduction is not reproducible")
	}
}
