// Compression explorer: run the five cache-line codecs standalone over
// data with different value-locality characteristics and see which
// algorithm wins where — the Figure 2 phenomenon in miniature. Given a
// file, it compares the codecs over that file's 128-byte lines instead.
//
//	go run ./examples/compression_explorer [file]
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"math/rand"
	"os"

	"lattecc"
)

// lineOf fills a 128-byte cache line via gen.
func lineOf(gen func(i int) uint32) []byte {
	b := make([]byte, lattecc.LineSize)
	for i := 0; i < lattecc.LineSize/4; i++ {
		binary.LittleEndian.PutUint32(b[i*4:], gen(i))
	}
	return b
}

func main() {
	rng := rand.New(rand.NewSource(42))

	// Three corpora with distinct value locality.
	type corpus struct {
		name  string
		lines [][]byte
	}
	corpora := []corpus{
		{"array indices (spatial locality)", mkLines(200, func(l, i int) uint32 {
			return uint32(l*1024 + i*4) // smooth within-line deltas: BDI's case
		})},
		{"FP constants (temporal locality)", mkLines(200, func(l, i int) uint32 {
			dict := [8]uint32{0x3F800000, 0x40490FDB, 0x402DF854, 0xBF000000,
				0x3E99999A, 0x41200000, 0x00000000, 0x42C80000}
			return dict[(l*31+i*7)%8] // few distinct values: SC's case
		})},
		{"random (incompressible)", mkLines(200, func(l, i int) uint32 {
			return rng.Uint32()
		})},
	}
	if len(os.Args) > 1 {
		lines, err := fileLines(os.Args[1])
		if err != nil {
			log.Fatal(err)
		}
		corpora = []corpus{{fmt.Sprintf("%s (%d lines)", os.Args[1], len(lines)), lines}}
	}

	for _, corpus := range corpora {
		// SC needs its value-frequency table trained first, exactly like
		// the hardware VFT snooping the fill path.
		sc := lattecc.NewSC()
		for _, l := range corpus.lines {
			sc.Train(l)
		}
		sc.Rebuild()

		codecs := []lattecc.Codec{
			lattecc.NewBDI(), lattecc.NewFPC(), lattecc.NewCPACK(),
			lattecc.NewBPC(), sc,
		}

		fmt.Printf("%s:\n", corpus.name)
		for _, c := range codecs {
			var in, out int
			for _, l := range corpus.lines {
				enc := c.Compress(l)
				in += lattecc.LineSize
				out += enc.Size

				// Every codec round-trips exactly.
				dec, err := c.Decompress(enc)
				if err != nil {
					panic(err)
				}
				if string(dec) != string(l) {
					panic("round-trip mismatch")
				}
			}
			fmt.Printf("  %-8s ratio %.2fx  (decompression %2d cycles)\n",
				c.Name(), float64(in)/float64(out), c.DecompLatency())
		}
		fmt.Println()
	}
}

func mkLines(n int, gen func(line, word int) uint32) [][]byte {
	out := make([][]byte, n)
	for l := 0; l < n; l++ {
		l := l
		out[l] = lineOf(func(i int) uint32 { return gen(l, i) })
	}
	return out
}

// fileLines splits a file into its full 128-byte cache lines; a trailing
// partial line is dropped.
func fileLines(path string) ([][]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out [][]byte
	for off := 0; off+lattecc.LineSize <= len(data); off += lattecc.LineSize {
		out = append(out, data[off:off+lattecc.LineSize])
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no full %d-byte cache lines", path, lattecc.LineSize)
	}
	return out, nil
}
