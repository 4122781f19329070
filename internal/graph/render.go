package graph

import "strconv"

// Canonical answer rendering. Every engine's WriteAnswer dump is a list of
// lines, each a keyword followed by space-separated decimal integers. A
// renderer sizes its dump exactly with DecimalLen/IntsLen, fills one buffer
// with strconv appends — no fmt, no reallocation — and memoizes the bytes
// per graph generation in a GenCache[[]byte].

// DecimalLen returns len(strconv.AppendInt(nil, v, 10)).
func DecimalLen(v int64) int {
	n, u := 1, uint64(v)
	if v < 0 {
		n, u = 2, -u
	}
	for ; u >= 10; u /= 10 {
		n++
	}
	return n
}

// IntsLen returns len(AppendInts(nil, vs)).
func IntsLen[T ~int | ~int64](vs []T) int {
	n := len(vs)
	for _, v := range vs {
		n += DecimalLen(int64(v))
	}
	return n
}

// AppendInts appends " <v>" to buf for every element of vs, in order.
func AppendInts[T ~int | ~int64](buf []byte, vs []T) []byte {
	for _, v := range vs {
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(v), 10)
	}
	return buf
}
