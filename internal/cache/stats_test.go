package cache

import (
	"reflect"
	"testing"
)

// fillDistinct sets every field of a Stats (including array elements) to
// a distinct nonzero value and returns the next unused value.
func fillDistinct(v reflect.Value, next uint64) uint64 {
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Uint64:
			f.SetUint(next)
			next++
		case reflect.Array:
			for j := 0; j < f.Len(); j++ {
				f.Index(j).SetUint(next)
				next++
			}
		default:
			panic("Stats grew a field kind fillDistinct does not handle: " + f.Kind().String())
		}
	}
	return next
}

// TestStatsAddCoversEveryField is the completeness guard behind
// Stats.Add: adding a fully-populated Stats onto a zero value must
// reproduce it exactly, so a newly added field that Add forgets shows up
// as a mismatch here instead of silently vanishing from the simulator's
// aggregated result (that is exactly how DecompBufferHits and
// WriteExpansions went missing from Sim.Run's hand-rolled loop).
func TestStatsAddCoversEveryField(t *testing.T) {
	var src Stats
	fillDistinct(reflect.ValueOf(&src).Elem(), 1)

	var dst Stats
	dst.Add(src)
	if dst != src {
		t.Fatalf("Add does not cover every field:\n got %+v\nwant %+v", dst, src)
	}

	dst.Add(src)
	var want Stats
	wv := reflect.ValueOf(&want).Elem()
	sv := reflect.ValueOf(&src).Elem()
	for i := 0; i < wv.NumField(); i++ {
		f, sf := wv.Field(i), sv.Field(i)
		if f.Kind() == reflect.Array {
			for j := 0; j < f.Len(); j++ {
				f.Index(j).SetUint(2 * sf.Index(j).Uint())
			}
			continue
		}
		f.SetUint(2 * sf.Uint())
	}
	if dst != want {
		t.Fatalf("Add is not additive:\n got %+v\nwant %+v", dst, want)
	}
}
