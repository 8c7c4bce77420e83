package resultstore

import (
	"fmt"
	"reflect"
	"testing"

	"lattecc/internal/sim"
	"lattecc/internal/stats"
)

// seriesType is the one pointer type a sim.Result holds.
var seriesType = reflect.TypeOf((*stats.Series)(nil))

// resultLeaves walks every leaf of res in field order and calls visit
// with its path and a function that perturbs it in place: a counter,
// array element, slice element, kernel field, or series point changes
// value, a slice or series loses its last element, and a series can
// become nil. A field of a kind the walk does not know is reported
// through unknown, so a new kind of Result field fails the test until
// the walk (and the codec and StateHash) learn it.
func resultLeaves(res *sim.Result, visit func(path string, perturb func()), unknown func(path string, k reflect.Kind)) {
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				name := v.Type().Field(i).Name
				if path != "" {
					name = path + "." + name
				}
				walk(v.Field(i), name)
			}
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
			}
		case reflect.Slice:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
			}
			if v.Len() > 0 {
				visit(path+".len", func() { v.SetLen(v.Len() - 1) })
			}
		case reflect.Pointer:
			if v.Type() != seriesType {
				unknown(path, v.Kind())
				return
			}
			if v.IsNil() {
				return
			}
			s := v.Interface().(*stats.Series)
			visit(path+".Name", func() { s.Name += "x" })
			for i := range s.Points() {
				p := &s.Points()[i]
				visit(fmt.Sprintf("%s.Points[%d].Cycle", path, i), func() { p.Cycle++ })
				visit(fmt.Sprintf("%s.Points[%d].Value", path, i), func() { p.Value += 0.5 })
			}
			if n := s.Len(); n > 0 {
				visit(path+".Points.len", func() { v.Set(reflect.ValueOf(stats.RestoreSeries(s.Name, s.Points()[:n-1]))) })
			}
			visit(path+".nil", func() { v.Set(reflect.Zero(v.Type())) })
		case reflect.String:
			visit(path, func() { v.SetString(v.String() + "x") })
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			visit(path, func() { v.SetInt(v.Int() + 1) })
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			visit(path, func() { v.SetUint(v.Uint() + 1) })
		default:
			unknown(path, v.Kind())
		}
	}
	walk(reflect.ValueOf(res).Elem(), "")
}

// sameResult compares two results field for field, each series by its
// name and points (its accumulator state is not part of a result).
func sameResult(a, b sim.Result) bool {
	for _, p := range [][2]*stats.Series{{a.ToleranceSeries, b.ToleranceSeries}, {a.CapacitySeries, b.CapacitySeries}} {
		if (p[0] == nil) != (p[1] == nil) {
			return false
		}
		if p[0] != nil && (p[0].Name != p[1].Name || !reflect.DeepEqual(p[0].Points(), p[1].Points())) {
			return false
		}
	}
	a.ToleranceSeries, a.CapacitySeries = nil, nil
	b.ToleranceSeries, b.CapacitySeries = nil, nil
	return reflect.DeepEqual(a, b)
}

// TestResultCoversEveryField is the result-side twin of
// sim.TestFingerprintCoversEveryMachineField: perturbing any leaf of a
// sim.Result must change its StateHash, and the store's codec must carry
// the perturbed value through Encode/Decode unchanged. A series' name is
// the one leaf outside StateHash: sim.Run fixes both names, so only the
// round trip is required of it.
func TestResultCoversEveryField(t *testing.T) {
	notHashed := map[string]bool{"ToleranceSeries.Name": true, "CapacitySeries.Name": true}
	k := testKey("SS")
	base := testResult("SS")
	want := base.StateHash()

	// Count the leaves, then perturb each on its own fresh copy.
	n := 0
	resultLeaves(&base, func(string, func()) { n++ }, func(path string, kind reflect.Kind) {
		t.Errorf("%s: %s field is not walked", path, kind)
	})
	if n < 60 {
		t.Fatalf("walk found %d leaves; testResult must fill every field", n)
	}
	for i := 0; i < n; i++ {
		res := base.Clone()
		var path string
		j := 0
		resultLeaves(&res, func(p string, perturb func()) {
			if j == i {
				path = p
				perturb()
			}
			j++
		}, func(string, reflect.Kind) {})

		if res.StateHash() == want && !notHashed[path] {
			t.Errorf("changing %s leaves StateHash unchanged", path)
		}
		_, dec, err := Decode(Encode(k, res))
		if err != nil {
			t.Errorf("%s: Decode: %v", path, err)
			continue
		}
		if !sameResult(res, dec) {
			t.Errorf("%s: round trip differs:\n got %+v\nwant %+v", path, dec, res)
		}
	}
	if base.StateHash() != want {
		t.Fatal("perturbing a clone changed the base result")
	}
}
