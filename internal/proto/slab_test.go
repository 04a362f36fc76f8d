package proto

import (
	"slices"
	"testing"
	"unsafe"
)

func TestSlabCarves(t *testing.T) {
	const lo, hi = 4, 32
	var s Slab[int]
	var carves [][]int
	var sizes []int // chunk lengths, in the order the slab made them
	carve := func(n int) []int {
		c := s.Carve(n, lo, hi)
		if len(c) != n || cap(c) != n {
			t.Fatalf("carve of %d: len %d cap %d", n, len(c), cap(c))
		}
		if len(sizes) == 0 || sizes[len(sizes)-1] != s.size {
			sizes = append(sizes, s.size)
		}
		for i := range c {
			c[i] = len(carves) + 1
		}
		carves = append(carves, c)
		return c
	}

	// Chunk sizes double from lo and stop at hi.
	for i := 0; i < 40; i++ {
		carve(3)
	}
	if want := []int{4, 8, 16, 32}; !slices.Equal(sizes, want) {
		t.Fatalf("chunk sizes %v, want %v", sizes, want)
	}

	// Appending to a carve cannot reach its neighbour in the chunk.
	a, b := carve(2), carve(2)
	if unsafe.Add(unsafe.Pointer(&a[0]), 2*unsafe.Sizeof(a[0])) != unsafe.Pointer(&b[0]) {
		t.Fatal("two consecutive carves are not neighbours in one chunk")
	}
	mark := b[0]
	a = append(a, -1)
	if b[0] != mark || &a[0] == &b[0] {
		t.Fatalf("append to a carve wrote its neighbour: %v", b)
	}

	// A carve longer than hi gets a chunk of its own: nothing is carved
	// after it from the same storage.
	big := carve(hi + 5)
	next := carve(1)
	if end := unsafe.Add(unsafe.Pointer(&big[0]), len(big)*int(unsafe.Sizeof(big[0]))); unsafe.Pointer(&next[0]) == end {
		t.Fatal("a carve followed an oversized one in its chunk")
	}
	if s.size != hi {
		t.Fatalf("chunk size %d after an oversized carve, want %d", s.size, hi)
	}

	// No carve overlaps another: each still holds only its own mark.
	for i, c := range carves {
		for _, v := range c {
			if v != i+1 {
				t.Fatalf("carve %d was overwritten by carve %d", i, v-1)
			}
		}
	}
}
