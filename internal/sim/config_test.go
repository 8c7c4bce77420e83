package sim

import (
	"reflect"
	"testing"
)

// TestFingerprintCoversEveryMachineField walks Config (and the cache and
// memory configs inside it) by reflection and perturbs each scalar field
// in turn: every one must move the fingerprint, or the result store and
// the daemons would hand one machine's results to another. Only the
// runtime wiring (codec instances, the trace hook) is left out of the
// key. A field of any other kind fails the test until someone decides
// how it is keyed.
func TestFingerprintCoversEveryMachineField(t *testing.T) {
	skip := map[string]bool{"Cache.Codecs": true, "Trace": true}
	base := DefaultConfig()
	want := base.Fingerprint()
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		for i := 0; i < v.NumField(); i++ {
			f, name := v.Field(i), v.Type().Field(i).Name
			if path != "" {
				name = path + "." + name
			}
			if skip[name] {
				continue
			}
			old := reflect.ValueOf(f.Interface())
			switch f.Kind() {
			case reflect.Struct:
				walk(f, name)
				continue
			case reflect.Bool:
				f.SetBool(!f.Bool())
			case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
				f.SetInt(f.Int() + 1)
			case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
				f.SetUint(f.Uint() + 1)
			case reflect.Float32, reflect.Float64:
				f.SetFloat(f.Float() + 1)
			default:
				t.Errorf("%s: %s field is neither keyed nor skipped", name, f.Kind())
				continue
			}
			if base.Fingerprint() == want {
				t.Errorf("changing %s leaves the fingerprint unchanged", name)
			}
			f.Set(old)
		}
	}
	walk(reflect.ValueOf(&base).Elem(), "")
	if base.Fingerprint() != want {
		t.Fatal("walk did not restore the config")
	}
}

// TestFingerprintPinned pins the default and golden-gate machines'
// fingerprints: primed result stores and the cluster's affinity placement
// are keyed by them, so a change here orphans every stored result.
func TestFingerprintPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want uint64
	}{
		{"default", DefaultConfig(), 0xfcafe26ffc5be3fd},
		{"quick", ScaledConfig(true, false), 0x61d862138e65b5c6},
		{"tiny", ScaledConfig(false, true), 0xda317fcafe74962a},
	} {
		if got := tc.cfg.Fingerprint(); got != tc.want {
			t.Errorf("%s machine fingerprint %#x, want %#x", tc.name, got, tc.want)
		}
	}
}
