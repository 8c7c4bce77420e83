package mem

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"
)

// l2Stream drives s with n seeded requests and calls emit with every
// cycle Read or Write returns. Half the requests go to a hot window of
// half the L2's lines, so they hit; the rest spread over four times its
// lines, so sets overflow and evict. A third of the requests are
// writes, so victims are both clean and dirty. Issue times advance by
// 0–7 cycles, so banks and channels queue.
func l2Stream(s *System, seed uint64, n int, emit func(uint64)) {
	lines := uint64(s.cfg.L2SizeBytes / s.cfg.LineSize)
	x := seed
	next := func() uint64 { // splitmix64
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return z ^ z>>31
	}
	var now uint64
	for i := 0; i < n; i++ {
		r := next()
		line := (r >> 8) % (4 * lines)
		if r&1 == 0 {
			line = (r >> 8) % (lines/2 + 1)
		}
		addr := line*uint64(s.cfg.LineSize) + r>>4&15
		if (r>>1)%3 == 0 {
			emit(s.Write(addr, now))
		} else {
			emit(s.Read(addr, now))
		}
		now += r >> 2 & 7
	}
}

// TestL2StreamPinned pins every cycle Read and Write return, and the
// final Stats, over a seeded stream of hits, clean and dirty evictions
// and sets overfilled many times, at 1, 8 and 16 ways and 1 and 12
// banks. A digest moves only when the L2/DRAM model's timing, hit or
// write-back decisions change.
func TestL2StreamPinned(t *testing.T) {
	geometry := func(size, ways, banks int) Config {
		cfg := DefaultConfig()
		cfg.L2SizeBytes, cfg.L2Ways, cfg.L2Banks = size, ways, banks
		return cfg
	}
	cases := []struct {
		name string
		cfg  Config
		want uint64
	}{
		{"tableII", DefaultConfig(), 0xcd310c5cbdc421bc},
		{"1way-1bank", geometry(64*128, 1, 1), 0xc7ed46ab80bacf92},
		{"1way-12banks", geometry(12*16*128, 1, 12), 0x39c5f3c82d692a4d},
		{"8way-1bank", geometry(8*32*128, 8, 1), 0x47853b852810b5e9},
		{"16way-1bank", geometry(16*8*128, 16, 1), 0x5f1caa853b6f5201},
		{"16way-12banks", geometry(16*12*4*128, 16, 12), 0xb5c83a9e15ed2b56},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := New(c.cfg)
			h := fnv.New64a()
			var b [8]byte
			l2Stream(s, 1, 60000, func(done uint64) {
				binary.LittleEndian.PutUint64(b[:], done)
				h.Write(b[:])
			})
			fmt.Fprintf(h, "%+v", s.Stats())
			if got := h.Sum64(); got != c.want {
				t.Errorf("digest %#x, want %#x; stats %+v", got, c.want, s.Stats())
			}
		})
	}
}

// BenchmarkL2Access times one Read or Write of l2Stream's mix at
// Table II: about half hit, and a third are stores.
func BenchmarkL2Access(b *testing.B) {
	s := New(DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	l2Stream(s, 1, b.N, func(uint64) {})
}
