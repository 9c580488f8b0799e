//go:build !amd64 || noasm

package hdc

import "testing"

// encodePaths runs f on the one EncodePanel path a portable build has.
func encodePaths(t testing.TB, f func(path string)) {
	t.Helper()
	t.Logf("encode paths avx512, avx2: not in this build, skipped")
	f("generic")
}

// panel64Paths runs f on the one Panel64 path a portable build has.
func panel64Paths(t testing.TB, f func(path string)) {
	t.Helper()
	t.Logf("panel paths avx512, fma: not in this build, skipped")
	f("generic")
}
