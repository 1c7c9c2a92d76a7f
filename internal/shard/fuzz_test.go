package shard

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzEnvelopeCodec holds the shard codec — the only payload codec that
// reads bytes off a socket — to two properties. Decode never panics on
// arbitrary input: a hostile or corrupt peer can write anything into the
// stream. And an envelope Decode accepts survives a re-encode: Encode then
// Decode yields an equal envelope, and a second Encode the same bytes.
// The one difference JSON allows is an empty peer table, which omitempty
// marshals away; nil and empty Peers mean the same to the ring.
func FuzzEnvelopeCodec(f *testing.F) {
	c := Codec{}
	lo, hi := int32(-3), int32(5)
	for _, e := range []*Envelope{
		{Kind: KindHello, Peers: map[string]string{"0": "127.0.0.1:7000", "1": "127.0.0.1:7001"}, SentNs: 11, Epoch: 3},
		{Kind: KindTask, ID: 7, Game: "connect4", Pos: "3,3,4", Depth: 8, SentNs: 12, Trace: "tr-1", Epoch: 3},
		{Kind: KindTask, ID: 9, Game: "random", Pos: "42:5", Depth: 7, Alpha: &lo, Beta: &hi, Epoch: 3},
		{Kind: KindTask, ID: 10, Game: "random", Pos: "42:5", Depth: 7, Alpha: &hi, Beta: &lo}, // empty window: Decode rejects it
		{Kind: KindTask, ID: 11, Game: "random", Pos: "42:5", Depth: 7, Plies: 1, SentNs: 15, Epoch: 3},
		{Kind: KindTask, ID: 12, Game: "connect4", Pos: "33", Depth: 3, Plies: 3, Beta: &hi},
		{Kind: KindTask, ID: 13, Game: "random", Pos: "42:5", Depth: 2, Plies: 3},  // plies past depth: Decode rejects it
		{Kind: KindTask, ID: 14, Game: "random", Pos: "42:5", Depth: 2, Plies: -1}, // negative plies: Decode rejects it
		{Kind: KindResult, ID: 7, Value: -5, Best: 2, Nodes: 4096, SentNs: 12, Trace: "tr-1", Epoch: 3},
		{Kind: KindResult, ID: 8, Err: "shard: unknown game", Epoch: 3},
		{Kind: KindPing, SentNs: 13, EchoNs: 11, Boot: 0xdeadbeef, Addr: "127.0.0.1:7002"},
	} {
		b, err := c.Encode(e)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	// Frames of the retired remote-table kinds, which Decode rejects as
	// unknown.
	f.Add([]byte(`{"kind":"ttprobe","hash":11400714819323198485,"sent_ns":14}`))
	f.Add([]byte(`{"kind":"ttreply","hash":11400714819323198485,"value":1,"depth":9,"flag":2,"sent_ns":14}`))
	f.Add([]byte(`{"kind":"ttstore","hash":1,"value":-3,"best":4,"depth":10,"flag":1}`))
	f.Add([]byte(`{"kind":"hello","peers":{}}`))
	f.Add([]byte(`{"kind":"nope"}`))
	f.Add([]byte(`{{`))

	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := c.Decode(data)
		if err != nil {
			return
		}
		first := v.(*Envelope)
		enc, err := c.Encode(first)
		if err != nil {
			t.Fatalf("encode of a decoded envelope failed: %v", err)
		}
		v, err = c.Decode(enc)
		if err != nil {
			t.Fatalf("decode of our own encoding %q failed: %v", enc, err)
		}
		second := v.(*Envelope)
		if len(first.Peers) == 0 {
			first.Peers = nil
		}
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("round trip changed the envelope:\n in  %+v\n out %+v", first, second)
		}
		again, err := c.Encode(second)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, again) {
			t.Fatalf("encoding is not a fixpoint:\n %s\n %s", enc, again)
		}
	})
}
