// Package wire provides binary encodings for every control message in the
// repository, so that on-air packet sizes are the sizes of real encodings
// rather than estimates, and so the message structures are pinned by
// round-trip tests the way a production protocol implementation would pin
// its wire format.
//
// The format is deliberately simple and explicit: a one-byte message type,
// followed by fixed-width big-endian fields, followed by length-prefixed
// repeated sections. It is not any IETF standard format — the paper's
// protocols each have their own drafts — but it is faithful to their field
// inventories, which is what determines the control-overhead comparisons.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// MsgType identifies an encoded message.
type MsgType uint8

// Message types across all protocols.
const (
	TypeLDRRREQ MsgType = iota + 1
	TypeLDRRREP
	TypeLDRRERR
	TypeAODVRREQ
	TypeAODVRREP
	TypeAODVRERR
	TypeDSRRREQ
	TypeDSRRREP
	TypeDSRRERR
	TypeOLSRHello
	TypeOLSRTC
)

// Errors returned by decoding.
var (
	ErrTruncated   = errors.New("wire: truncated message")
	ErrUnknownType = errors.New("wire: unknown message type")
)

// Encoder accumulates a message body.
type Encoder struct {
	buf []byte
}

// NewEncoder starts a message of the given type.
func NewEncoder(t MsgType) *Encoder {
	return &Encoder{buf: []byte{byte(t)}}
}

// Bytes returns the encoded message.
func (e *Encoder) Bytes() []byte { return e.buf }

// U8 appends a byte.
func (e *Encoder) U8(v uint8) *Encoder {
	e.buf = append(e.buf, v)
	return e
}

// U16 appends a big-endian 16-bit value.
func (e *Encoder) U16(v uint16) *Encoder {
	e.buf = binary.BigEndian.AppendUint16(e.buf, v)
	return e
}

// U32 appends a big-endian 32-bit value.
func (e *Encoder) U32(v uint32) *Encoder {
	e.buf = binary.BigEndian.AppendUint32(e.buf, v)
	return e
}

// U64 appends a big-endian 64-bit value.
func (e *Encoder) U64(v uint64) *Encoder {
	e.buf = binary.BigEndian.AppendUint64(e.buf, v)
	return e
}

// Node appends a node identifier (32-bit, two's complement for the
// broadcast sentinel).
func (e *Encoder) Node(id int) *Encoder {
	return e.U32(uint32(int32(id)))
}

// Decoder reads a message body.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder wraps an encoded message, verifying its type byte.
func NewDecoder(b []byte, want MsgType) (*Decoder, error) {
	if len(b) < 1 {
		return nil, ErrTruncated
	}
	if MsgType(b[0]) != want {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrUnknownType, b[0], want)
	}
	return &Decoder{buf: b, off: 1}, nil
}

// Type peeks the type byte of an encoded message.
func Type(b []byte) (MsgType, error) {
	if len(b) < 1 {
		return 0, ErrTruncated
	}
	return MsgType(b[0]), nil
}

// Err returns the first error encountered while decoding.
func (d *Decoder) Err() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("wire: %d trailing bytes", len(d.buf)-d.off)
	}
	return nil
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.buf) {
		d.err = ErrTruncated
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads a byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a big-endian 16-bit value.
func (d *Decoder) U16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

// U32 reads a big-endian 32-bit value.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// U64 reads a big-endian 64-bit value.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// Node reads a node identifier.
func (d *Decoder) Node() int {
	return int(int32(d.U32()))
}
