package transport

// Wire framing: every packet crosses a TCP stream as one length-prefixed
// frame so the reader can recover message boundaries from the byte
// stream. The layout is deliberately dumb —
//
//	uint32  length of the rest of the frame (big endian)
//	int32   From processor id (big endian, two's complement; -1 legal)
//	int32   To processor id
//	bytes   codec payload
//
// — because everything interesting (sequence numbers, acks, dedup,
// retransmission) lives a layer up, in the shard RPC protocol. The transport's only framing obligations are that a
// frame is delivered whole or not at all, and that a hostile or corrupt
// stream is rejected rather than trusted (bounded length, error on
// short frames).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"gametree/internal/faultnet"
)

// MaxFrame bounds one frame's payload so a corrupt length prefix cannot
// make the reader allocate gigabytes. Shard envelopes are all well
// under a kilobyte; 1 MiB leaves room for future payloads.
const MaxFrame = 1 << 20

const headerLen = 8 // From + To, after the length prefix

// instanceProc is the pseudo-processor id on preamble frames: the first
// frame an acceptor writes back down every inbound connection, carrying
// its 8-byte instance identity. Dialers consume it before entering the
// send loop; it never reaches the delivery callback.
const instanceProc = -2

var (
	errFrameTooBig   = errors.New("transport: frame exceeds MaxFrame")
	errFrameTooShort = errors.New("transport: frame shorter than its header")
)

// appendFrame encodes pkt (with its payload already encoded to body)
// onto dst in wire order and returns the extended slice.
func appendFrame(dst []byte, from, to int, body []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(headerLen+len(body)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(from)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(to)))
	return append(dst, body...)
}

// EncodeFrame renders one packet as a complete wire frame using the
// codec for the payload.
func EncodeFrame(pkt faultnet.Packet, c Codec) ([]byte, error) {
	body, err := c.Encode(pkt.Payload)
	if err != nil {
		return nil, fmt.Errorf("transport: encode payload: %w", err)
	}
	if headerLen+len(body) > MaxFrame {
		return nil, errFrameTooBig
	}
	return appendFrame(make([]byte, 0, 4+headerLen+len(body)), pkt.From, pkt.To, body), nil
}

// DecodeFrame parses one complete wire frame (including the length
// prefix) back into a packet. It is the inverse of EncodeFrame and must
// never panic on arbitrary input — FuzzFrameRoundTrip holds it to that.
func DecodeFrame(frame []byte, c Codec) (faultnet.Packet, error) {
	if len(frame) < 4 {
		return faultnet.Packet{}, errFrameTooShort
	}
	n := binary.BigEndian.Uint32(frame)
	if n > MaxFrame {
		return faultnet.Packet{}, errFrameTooBig
	}
	if n < headerLen || len(frame) != int(4+n) {
		return faultnet.Packet{}, errFrameTooShort
	}
	return decodeBody(frame[4:], c)
}

// decodeBody parses the post-length portion of a frame.
func decodeBody(body []byte, c Codec) (faultnet.Packet, error) {
	if len(body) < headerLen {
		return faultnet.Packet{}, errFrameTooShort
	}
	pkt := faultnet.Packet{
		From: int(int32(binary.BigEndian.Uint32(body))),
		To:   int(int32(binary.BigEndian.Uint32(body[4:]))),
	}
	payload, err := c.Decode(body[headerLen:])
	if err != nil {
		return faultnet.Packet{}, fmt.Errorf("transport: decode payload: %w", err)
	}
	pkt.Payload = payload
	return pkt, nil
}

// readFrame reads one frame body (From/To/payload, without the length
// prefix) from r into buf, growing it as needed, and returns the slice
// holding the body.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	var lenb [4]byte
	if _, err := io.ReadFull(r, lenb[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(lenb[:])
	if n > MaxFrame {
		return nil, errFrameTooBig
	}
	if n < headerLen {
		return nil, errFrameTooShort
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}
