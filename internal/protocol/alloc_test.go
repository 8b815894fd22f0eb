package protocol

// Codec allocation regression: with a per-connection Decoder and a reused
// encode buffer, a steady-state delta exchange must not touch the heap.

import (
	"bytes"
	"testing"

	"coca/internal/core"
)

func benchDeltaMessage() *Message {
	vec := make([]float32, 64)
	for i := range vec {
		vec[i] = float32(i) * 0.013
	}
	d := &core.Delta{Version: 9, BaseVersion: 8, Classes: []int{1, 2, 5}, Sites: []int{0, 3}}
	for c := 0; c < 24; c++ {
		d.Cells = append(d.Cells, core.DeltaCell{Site: c % 4, Class: c, Vec: vec})
	}
	d.Evict = []core.CellRef{{Site: 1, Class: 9}, {Site: 2, Class: 4}}
	return &Message{Type: TypeDelta, ClientID: 3, SessionID: 17, Delta: d}
}

func TestCodecSteadyStateAllocs(t *testing.T) {
	msg := benchDeltaMessage()
	var dec Decoder
	var enc []byte
	// Warm the scratch to its high-water shape.
	for i := 0; i < 3; i++ {
		frame, err := AppendEncode(enc[:0], msg)
		if err != nil {
			t.Fatal(err)
		}
		enc = frame
		if _, err := dec.Decode(frame); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(50, func() {
		frame, err := AppendEncode(enc[:0], msg)
		if err != nil {
			t.Fatal(err)
		}
		enc = frame
	}); allocs != 0 {
		t.Errorf("steady-state AppendEncode: %.1f allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := dec.Decode(enc); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("steady-state Decoder.Decode: %.1f allocs/op, want 0", allocs)
	}
}

// TestDecoderMatchesDecode cross-checks the scratch decoder against the
// allocating decoder on every sample message.
func TestDecoderMatchesDecode(t *testing.T) {
	var dec Decoder
	for _, m := range sampleMessages() {
		frame, err := Encode(m)
		if err != nil {
			t.Fatalf("encode %d: %v", m.Type, err)
		}
		want, err := Decode(frame)
		if err != nil {
			t.Fatalf("decode %d: %v", m.Type, err)
		}
		got, err := dec.Decode(frame)
		if err != nil {
			t.Fatalf("decoder %d: %v", m.Type, err)
		}
		// Nil and empty slices are wire-equivalent; compare via re-encode,
		// which is the contract that matters.
		wantBytes, err := Encode(want)
		if err != nil {
			t.Fatalf("re-encode want %d: %v", m.Type, err)
		}
		gotBytes, err := Encode(got)
		if err != nil {
			t.Fatalf("re-encode got %d: %v", m.Type, err)
		}
		if !bytes.Equal(gotBytes, wantBytes) {
			t.Fatalf("type %d: decoder result re-encodes differently\n got %x\nwant %x", m.Type, gotBytes, wantBytes)
		}
	}
}
