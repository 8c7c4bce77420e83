package slab

import "testing"

func TestReuse(t *testing.T) {
	big := []int{1, 2, 3, 4}
	got := Reuse(big, 3)
	if len(got) != 3 || &got[0] != &big[0] {
		t.Fatalf("Reuse of a large enough array: len %d, same array %v", len(got), &got[0] == &big[0])
	}
	for i, v := range got {
		if v != 0 {
			t.Errorf("element %d is %d, want 0", i, v)
		}
	}
	if big[3] != 4 {
		t.Errorf("element past n cleared: %d", big[3])
	}
	if got := Reuse(big[:1:1], 2); len(got) != 2 || got[0] != 0 {
		t.Errorf("Reuse of a short array: %v", got)
	}
	if got := Reuse[int](nil, 5); len(got) != 5 {
		t.Errorf("Reuse of nil: len %d", len(got))
	}
}
