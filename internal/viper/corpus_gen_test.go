package viper

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// The seed corpora under testdata/fuzz/ are generated, not hand-written,
// so they stay in sync with the codec. Regenerate with:
//
//	go test ./internal/viper -run TestRegenerateFuzzCorpus -regen-corpus
var regenCorpus = flag.Bool("regen-corpus", false, "rewrite testdata/fuzz seed corpora")

// corpusFile is the `go test fuzz v1` encoding of one input: a value per
// argument of the fuzz function, each a []byte or a byte.
func corpusFile(args ...any) []byte {
	s := "go test fuzz v1\n"
	for _, a := range args {
		switch a := a.(type) {
		case []byte:
			s += fmt.Sprintf("[]byte(%q)\n", a)
		case byte:
			s += fmt.Sprintf("byte(%q)\n", a)
		default:
			panic(fmt.Sprintf("corpusFile: unsupported argument %T", a))
		}
	}
	return []byte(s)
}

// oneArg wraps single-[]byte seeds as corpus argument lists.
func oneArg(seeds map[string][]byte) map[string][]any {
	out := make(map[string][]any, len(seeds))
	for name, b := range seeds {
		out[name] = []any{b}
	}
	return out
}

func mustEncodeSeg(t *testing.T, s Segment, mirrored bool) []byte {
	t.Helper()
	var b []byte
	var err error
	if mirrored {
		b, err = AppendSegmentMirrored(nil, &s)
	} else {
		b, err = AppendSegment(nil, &s)
	}
	if err != nil {
		t.Fatalf("encode seed segment: %v", err)
	}
	return b
}

func mustEncodePkt(t *testing.T, p *Packet) []byte {
	t.Helper()
	b, err := p.Encode()
	if err != nil {
		t.Fatalf("encode seed packet: %v", err)
	}
	return b
}

// corpusSeeds builds the seed inputs for every fuzz target: zero-length
// PortInfo/PortToken, max-length (escape-encoded) fields, continuation
// flags both ways (VNT and the portInfo type tag), and truncated
// trailers.
func corpusSeeds(t *testing.T) map[string]map[string][]any {
	t.Helper()

	bigInfo := bytes.Repeat([]byte{0xA5}, 300) // forces the 255 length escape
	bigToken := bytes.Repeat([]byte{0x5C}, 260)
	tagInfo := []byte{0xDE, 0xAD, 0x88, 0xB5} // trailing EtherTypeVIPER: continuation

	segZero := Segment{Port: 3, Priority: 2}
	segVNT := Segment{Port: 7, Flags: FlagVNT, Priority: PriorityHighest, PortToken: []byte{1, 2, 3}}
	segTag := Segment{Port: 9, Priority: 5, PortInfo: tagInfo}
	segBig := Segment{Port: 200, Priority: PriorityLowest, PortToken: bigToken, PortInfo: bigInfo}

	segments := map[string][]byte{
		"zero_fields":    mustEncodeSeg(t, segZero, false),
		"vnt_with_token": mustEncodeSeg(t, segVNT, false),
		"portinfo_tag":   mustEncodeSeg(t, segTag, false),
		"max_len_escape": mustEncodeSeg(t, segBig, false),
		// Non-canonical: zero-length field carried via the length escape.
		"escaped_zero_len": {255, 0, 1, 0x00, 0, 0, 0, 0},
		"truncated_prefix": {0, 0, 1},
		"len_overrun":      {0, 9, 1, 0x00, 0xFF}, // token length 9, 1 byte present
	}

	mirrored := map[string][]byte{
		"zero_fields":      mustEncodeSeg(t, segZero, true),
		"vnt_with_token":   mustEncodeSeg(t, segVNT, true),
		"portinfo_tag":     mustEncodeSeg(t, segTag, true),
		"max_len_escape":   mustEncodeSeg(t, segBig, true),
		"escaped_zero_len": {0, 0, 0, 0, 255, 0, 1, 0x00},
		"one_byte":         {0x5A},
		"len_overrun":      {0xFF, 0, 9, 1, 0x00},
	}

	// DAG (failover) blobs and segments.
	altShort := []Segment{
		{Port: 3, Priority: 2, PortToken: []byte("alt-tok"), Flags: FlagVNT},
		{Port: PortLocal},
	}
	altLong := []Segment{
		{Port: 4, Priority: 2, PortInfo: tagInfo, Flags: FlagVNT},
		{Port: 1, Priority: 2, Flags: FlagVNT},
		{Port: PortLocal},
	}
	mustEncodeDAG := func(primary []byte, alts [][]Segment) []byte {
		b, err := EncodeDAG(primary, alts)
		if err != nil {
			t.Fatalf("encode seed DAG: %v", err)
		}
		return b
	}
	dagOne := mustEncodeDAG(nil, [][]Segment{altShort})
	dagRanked := mustEncodeDAG(tagInfo, [][]Segment{altShort, altLong, {{Port: 9}, {Port: PortLocal}}})
	nested, err := DAGSegment(2, 2, []byte("tok"), tagInfo, [][]Segment{altShort})
	if err != nil {
		t.Fatalf("seed DAG segment: %v", err)
	}
	dagNested := mustEncodeDAG(nil, [][]Segment{{nested, {Port: PortLocal}}})

	dags := map[string][]byte{
		"one_alt_p2p":    dagOne,
		"ranked_primary": dagRanked,
		"nested_dag":     dagNested,
		// Malformed framings the decoder must bounce, not misparse.
		"zero_alts":      {0xDA, 0, 0, 0, 0, 0},
		"bad_tag":        {0xDA, 1, 0, 4, 0, 0, 3, 0x12, 0, 0, 0, 0},
		"branch_overrun": {0xDA, 2, 0, 4, 0, 0, 3, 0x12, 0, 9, 0, 0x5A},
	}

	// A DAG hop is also a segment and a route hop: seed the other targets
	// so their mutations explore the DAG framing too.
	segments["dag_hop"] = mustEncodeSeg(t, nested, false)
	mirrored["dag_hop"] = mustEncodeSeg(t, nested, true)

	// Packets.
	simple := NewPacket([]Segment{{Port: 2}}, []byte("hello sirpent"))

	chain := NewPacket([]Segment{
		{Port: 4, Flags: FlagVNT, Priority: 6},
		{Port: 5, PortInfo: tagInfo, Priority: 6},
		{Port: PortLocal, Priority: 6},
	}, bytes.Repeat([]byte{0x42}, 64))
	chain.Trailer = []Segment{
		{Port: PortLocal},
		{Port: 1, PortToken: []byte{9, 9, 9}},
	}

	padded := NewPacket([]Segment{{Port: 1, Flags: FlagDIB}}, []byte("data"))
	padded.Padding = 16
	padded.Trailer = []Segment{{Port: 2, PortInfo: tagInfo}}

	big := NewPacket([]Segment{{Port: 1, PortToken: bigToken}}, nil)
	big.Trailer = []Segment{{Port: 6, PortInfo: bigInfo}}
	big.Truncated = true

	dagPkt := NewPacket([]Segment{nested.Clone(), {Port: PortLocal, Priority: 2}}, []byte("detour"))
	dagPkt.Trailer = []Segment{{Port: PortLocal}}

	full := mustEncodePkt(t, chain)
	packets := map[string][]byte{
		"dag_route":      mustEncodePkt(t, dagPkt),
		"single_segment": mustEncodePkt(t, simple),
		"vnt_chain":      full,
		"padded":         mustEncodePkt(t, padded),
		"max_len_fields": mustEncodePkt(t, big),
		// Truncated trailers: descriptor chopped, and descriptor intact
		// but trailer bytes missing.
		"truncated_descriptor": full[:len(full)-2],
		"truncated_trailer":    append(append([]byte(nil), full[:4]...), full[len(full)-4:]...),
		"descriptor_only":      {0, 0, 0, 0x5A},
		"count_overclaims":     {0, 0, 1, 0x00, 0, 40, 0, 0x5A}, // claims 40 trailer segments
	}

	// Deliveries: every packet seed arriving bare on port 1, and the full
	// chain arriving behind a network header that joins the return route.
	deliveries := make(map[string][]any, len(packets)+1)
	for name, b := range packets {
		deliveries[name] = []any{b, byte(1), []byte(nil)}
	}
	deliveries["arrival_header"] = []any{full, byte(7), tagInfo}
	// A pair whose field bytes concatenate to the same "AB" but split
	// differently: each route must be windowed by its own field
	// lengths, and a memo must not take one for the other.
	for name, split := range map[string]Segment{
		"split_token_ab":       {Port: 3, PortToken: []byte("AB")},
		"split_token_a_info_b": {Port: 3, PortToken: []byte("A"), PortInfo: []byte("B")},
	} {
		sp := NewPacket([]Segment{{Port: PortLocal}}, []byte("split"))
		sp.Trailer = []Segment{{Port: PortLocal}, split}
		deliveries[name] = []any{mustEncodePkt(t, sp), byte(1), []byte(nil)}
	}

	return map[string]map[string][]any{
		"FuzzDecodeSegment":         oneArg(segments),
		"FuzzDecodeSegmentMirrored": oneArg(mirrored),
		"FuzzPacketRoundTrip":       oneArg(packets),
		"FuzzDecodeDAG":             oneArg(dags),
		"FuzzDecodeDelivery":        deliveries,
	}
}

// TestRegenerateFuzzCorpus rewrites the seed corpora when -regen-corpus
// is set; otherwise it verifies the checked-in corpus is present and
// well-formed, so a stale tree fails loudly rather than fuzzing nothing.
func TestRegenerateFuzzCorpus(t *testing.T) {
	seeds := corpusSeeds(t)
	for target, files := range seeds {
		dir := filepath.Join("testdata", "fuzz", target)
		if *regenCorpus {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
		}
		for name, args := range files {
			data := corpusFile(args...)
			path := filepath.Join(dir, "seed_"+name)
			if *regenCorpus {
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Errorf("missing corpus seed %s (run with -regen-corpus): %v", path, err)
				continue
			}
			if !bytes.Equal(got, data) {
				t.Errorf("corpus seed %s is stale (run with -regen-corpus)", path)
			}
		}
	}
}
