package games

import "slices"

// Nim heaps and Kayles rows share one canonical form: the nonzero parts
// in ascending order. A position's successors are built in it directly,
// so a position has one form, one table key and one String however its
// parts were listed.

// canonicalParts returns the nonzero parts sorted ascending, in a fresh
// slice; a negative part panics with msg.
func canonicalParts(parts []int, msg string) []int {
	out := make([]int, 0, len(parts))
	for _, v := range parts {
		if v < 0 {
			panic(msg)
		}
		if v > 0 {
			out = append(out, v)
		}
	}
	slices.Sort(out)
	return out
}

// withPart returns canonical parts with the part at index i replaced by
// the nonzero values of add, each smaller than parts[i]; the result is
// canonical too, in a fresh slice.
func withPart(parts []int, i int, add ...int) []int {
	out := make([]int, 0, len(parts)-1+len(add))
	out = append(out, parts[:i]...)
	out = append(out, parts[i+1:]...)
	// Every value added is smaller than parts[i], so it lands among the
	// first i parts and the values inserted before it: one insertion
	// step each.
	below := i
	for _, v := range add {
		if v == 0 {
			continue
		}
		j, _ := slices.BinarySearch(out[:below], v)
		out = slices.Insert(out, j, v)
		below++
	}
	return out
}
