//go:build amd64 && !noasm

package hdc

import "testing"

// encodePaths runs f once per EncodePanel dispatch path this CPU can
// execute — avx512, avx2, generic — with the dispatch flags set for that
// path, and logs the paths it lacks.
func encodePaths(t testing.TB, f func(path string)) {
	t.Helper()
	have512, have2 := useAVX512, useAVX2
	defer func() { useAVX512, useAVX2 = have512, have2 }()
	for _, p := range []struct {
		name         string
		avx512, avx2 bool
		have         bool
	}{
		{"avx512", true, true, have512},
		{"avx2", false, true, have2},
		{"generic", false, false, true},
	} {
		if !p.have {
			t.Logf("encode path %s: not supported by this CPU, skipped", p.name)
			continue
		}
		useAVX512, useAVX2 = p.avx512, p.avx2
		f(p.name)
	}
}

// panel64Paths runs f once per Panel64.Dots dispatch path this CPU can
// execute — fma, generic — with useFMA set for that path.
func panel64Paths(t testing.TB, f func(path string)) {
	t.Helper()
	have := useFMA
	defer func() { useFMA = have }()
	if have {
		f("fma")
	} else {
		t.Logf("panel path fma: not supported by this CPU, skipped")
	}
	useFMA = false
	f("generic")
}
