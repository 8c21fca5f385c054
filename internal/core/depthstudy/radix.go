package depthstudy

import "math"

// radixSort sorts keys into ascending order: an LSD radix sort on the
// eight bytes of each key's IEEE 754 bit pattern, skipping every byte
// that all keys share. For +0, positive numbers and +Inf the bit
// patterns order as the values do, so the result is bit-identical to
// slices.Sort's; keys must be of those kinds (no NaN, no negative
// number, no -0). buf is the scratch, grown as needed and returned for
// reuse.
func radixSort(keys, buf []float64) []float64 {
	n := len(keys)
	if n < 2 {
		return buf
	}
	var counts [8][256]int
	for _, k := range keys {
		b := math.Float64bits(k)
		for d := range counts {
			counts[d][byte(b>>(8*d))]++
		}
	}
	if cap(buf) < n {
		buf = make([]float64, n)
	}
	src, dst := keys, buf[:n]
	for d := range counts {
		shift := 8 * d
		c := &counts[d]
		if c[byte(math.Float64bits(src[0])>>shift)] == n {
			continue
		}
		// Turn the counts into each byte value's first output slot.
		sum := 0
		for v, cnt := range c {
			c[v] = sum
			sum += cnt
		}
		for _, k := range src {
			v := byte(math.Float64bits(k) >> shift)
			dst[c[v]] = k
			c[v]++
		}
		src, dst = dst, src
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
	return buf
}
