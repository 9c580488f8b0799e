//go:build amd64 && !noasm

package hdc

import "testing"

// dispatchPaths runs f once per dispatch path this CPU can execute — the
// three names, with the flags hi and lo set to (true, true), (false,
// true) and (false, false) — and logs the paths it lacks.
func dispatchPaths(t testing.TB, kind string, names [3]string, hi, lo *bool, f func(path string)) {
	t.Helper()
	haveHi, haveLo := *hi, *lo
	defer func() { *hi, *lo = haveHi, haveLo }()
	for i, have := range []bool{haveHi && haveLo, haveLo, true} {
		if !have {
			t.Logf("%s path %s: not supported by this CPU, skipped", kind, names[i])
			continue
		}
		*hi, *lo = i == 0, i < 2
		f(names[i])
	}
}

// encodePaths runs f once per EncodePanel dispatch path: avx512, avx2,
// generic.
func encodePaths(t testing.TB, f func(path string)) {
	t.Helper()
	dispatchPaths(t, "encode", [3]string{"avx512", "avx2", "generic"}, &useAVX512, &useAVX2, f)
}

// panel64Paths runs f once per Panel64 dispatch path: avx512 (the Dots4
// kernel, beside fma), fma, generic.
func panel64Paths(t testing.TB, f func(path string)) {
	t.Helper()
	dispatchPaths(t, "panel", [3]string{"avx512", "fma", "generic"}, &useAVX512, &useFMA, f)
}
