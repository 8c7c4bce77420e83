package compress

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"slices"
	"testing"
)

// pinnedStreams are SHA-256 digests of every codec's Compress and
// Measure output over streamCorpus. A change to a stream's layout, a
// size rule or an encoding choice moves a digest, which the round-trip
// tests cannot see: a codec whose encoder and decoder change together
// still round-trips. Recompute a digest only for a deliberate format
// change, and say so where the change is recorded.
var pinnedStreams = map[string]string{
	"BDI/Compress":          "685b09b8f00b7cbd6f108423701568867a06dab54ed44920cdc49ff78750fca1",
	"BDI/Measure":           "00027fa6658aea099f43898f3dcff841ed1eadbfd360acc87ea07e260866c330",
	"FPC/Compress":          "45482f7df72885b358212779d741253b3e01bb2ed03eb07b4c1e8a3240caf13c",
	"FPC/Measure":           "9910e13f608bf03f98a12f81dba022be4c350b44fe9cb6a758d835c02a96eae4",
	"CPACK-Z/Compress":      "f317918b7ab13628b327cc973d6d391288d0905d38a87690d593209c55178a57",
	"CPACK-Z/Measure":       "48537afd623088a6a14e2d86b217bed53299fa8f5a4ee938c74aa6b8739cf5aa",
	"BPC/Compress":          "aa46b452e3c2595bbca3bedde20e1b57b396eae247b053d10514065140ef1c10",
	"BPC/Measure":           "5d5e208e4f05b700cba92a5d276178abaceb6019a70aae0625dc354641c48a8a",
	"SC/Compress":           "91bd0eb6530e8773e5c3eb169765892a6158ac7680f6a0ffe371c465fd7b0086",
	"SC/Measure":            "bfdbef46dcc221930ef8e35bd9fd3e76be4f75716f1a1328011b4c5c1a34d0cd",
	"SC-untrained/Compress": "034e6e44cf4e2a4702e7695938f57cf79a8db63597a96515ab123ac8d47b1c56",
	"SC-untrained/Measure":  "af40a0611109ed5db662e62c629c1520e1432496560ab3c3ee9203c4a695a47f",
}

// streamCorpus is a fixed line set: 40 seeded lines from each
// generator, in name order, then the adversarial lines, then one line
// each for the two BDI encodings the generators never pick (b8d4,
// b2d1).
func streamCorpus() [][]byte {
	names := make([]string, 0, len(lineGenerators))
	for name := range lineGenerators {
		names = append(names, name)
	}
	slices.Sort(names)
	rng := rand.New(rand.NewSource(2024))
	var lines [][]byte
	for _, name := range names {
		for i := 0; i < 40; i++ {
			lines = append(lines, lineGenerators[name](rng))
		}
	}
	lines = append(lines, adversarialLines()...)
	b8d4 := make([]byte, LineSize)
	for i := 0; i < LineSize/8; i++ {
		binary.LittleEndian.PutUint64(b8d4[i*8:], 0x100000000000+uint64(i)*0x1234567)
	}
	b2d1 := make([]byte, LineSize)
	for i := 0; i < LineSize/2; i++ {
		binary.LittleEndian.PutUint16(b2d1[i*2:], 0x4000+uint16(i%100))
	}
	return append(lines, b8d4, b2d1)
}

// encodedDigest hashes a sequence of Encoded values: each one's
// Size, Raw, Generation and length-prefixed Data.
type encodedDigest struct{ buf []byte }

func (d *encodedDigest) add(e Encoded) {
	raw := uint64(0)
	if e.Raw {
		raw = 1
	}
	for _, v := range []uint64{uint64(e.Size), raw, e.Generation, uint64(len(e.Data))} {
		d.buf = binary.LittleEndian.AppendUint64(d.buf, v)
	}
	d.buf = append(d.buf, e.Data...)
}

func (d *encodedDigest) sum() string {
	s := sha256.Sum256(d.buf)
	return hex.EncodeToString(s[:])
}

func TestCompressStreamsPinned(t *testing.T) {
	lines := streamCorpus()
	sc := NewSC()
	for i := 0; i < len(lines); i += 2 {
		sc.Train(lines[i])
	}
	if !sc.Rebuild() {
		t.Fatal("SC rebuild produced no code book")
	}
	codecs := map[string]Codec{
		"BDI": NewBDI(), "FPC": NewFPC(), "CPACK-Z": NewCPACK(), "BPC": NewBPC(),
		"SC": sc, "SC-untrained": NewSC(),
	}
	got := map[string]string{}
	for name, c := range codecs {
		var comp, meas encodedDigest
		for _, line := range lines {
			comp.add(c.Compress(line))
			meas.add(c.Measure(line))
		}
		got[name+"/Compress"] = comp.sum()
		got[name+"/Measure"] = meas.sum()
	}
	keys := make([]string, 0, len(pinnedStreams))
	for k := range pinnedStreams {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		if got[k] != pinnedStreams[k] {
			t.Errorf("%s digest %s, pinned %s", k, got[k], pinnedStreams[k])
		}
	}
}
