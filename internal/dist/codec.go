// Binary message codec: the module's one wire format.
//
// Every protocol payload type (nash.*, lbm.*, hier.*) has a hand-rolled
// binary encoding: one magic byte (0xB1), one wire-type byte, then
// varint integers, little-endian float64s and bit-packed bools.
// Encoding performs exactly one allocation (the Data slice, sized up
// front); decoding into a reused payload struct performs none (slice
// fields are decoded into the target's existing capacity).
//
// EstimatePayload is the body of internal/ctrl's load estimate, so the
// control plane shares this codec too; Message.Encode and Decode accept
// nothing but these payload types.
//
// The wire format is part of the TCP transport contract (tcp.go frames
// carry Data verbatim) and is documented in DESIGN.md §Hierarchical
// protocols.
package dist

import (
	"encoding/binary"
	"fmt"
	"math"
)

// codecMagic marks a protocol payload, so bytes of another format
// decoded into a protocol type fail on the first byte.
const codecMagic = 0xB1

// Wire type ids. These are wire-format constants: never renumber,
// append only.
const (
	wireToken byte = iota + 1
	wireQuery
	wireRates
	wireStrategy
	wirePing
	wireEject
	wireAck
	wireReqBid
	wireBid
	wireAward
	wireHierToken
	wireHierPartial
	wireHierDown
	wireHierReq
	wireHierSync
	wireHierRow
	wireHierRows
	wireHierJoin
	wireHierJoinOK
	wireEstimate
)

// wireEncoder is implemented (with value receivers) by every payload
// with a binary encoding.
type wireEncoder interface {
	wireID() byte
	// wireSize upper-bounds the encoded size so Encode allocates once.
	wireSize() int
	appendWire(b []byte) []byte
}

// wireDecoder is implemented (with pointer receivers) by the same
// payloads; decodeWire reuses the target's slice capacity.
type wireDecoder interface {
	wireID() byte
	decodeWire(d *wireDec)
}

// maxV is the worst-case encoded size of one varint field.
const maxV = binary.MaxVarintLen64

// --- append helpers -------------------------------------------------

func appendInt(b []byte, v int) []byte { return binary.AppendVarint(b, int64(v)) }

func appendF64(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendF64s(b []byte, s []float64) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	for _, f := range s {
		b = appendF64(b, f)
	}
	return b
}

func appendI32s(b []byte, s []int32) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	for _, v := range s {
		b = binary.AppendVarint(b, int64(v))
	}
	return b
}

// appendBools bit-packs the mask: the flat ring's token carries an
// m-wide ejection mask on every hop, so at m=10,000 this is 1.25 KB
// instead of 10 KB per forward.
func appendBools(b []byte, s []bool) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	var acc byte
	for i, v := range s {
		if v {
			acc |= 1 << (i % 8)
		}
		if i%8 == 7 {
			b = append(b, acc)
			acc = 0
		}
	}
	if len(s)%8 != 0 {
		b = append(b, acc)
	}
	return b
}

func appendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendStrs(b []byte, s []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	for _, v := range s {
		b = appendStr(b, v)
	}
	return b
}

func appendRows(b []byte, rows [][]float64) []byte {
	b = binary.AppendUvarint(b, uint64(len(rows)))
	for _, r := range rows {
		b = appendF64s(b, r)
	}
	return b
}

func sizeF64s(s []float64) int { return maxV + 8*len(s) }
func sizeI32s(s []int32) int   { return maxV + maxV*len(s) }
func sizeBools(s []bool) int   { return maxV + (len(s)+7)/8 }
func sizeStr(s string) int     { return maxV + len(s) }
func sizeStrs(s []string) int {
	n := maxV
	for _, v := range s {
		n += sizeStr(v)
	}
	return n
}
func sizeRows(rows [][]float64) int {
	n := maxV
	for _, r := range rows {
		n += sizeF64s(r)
	}
	return n
}

// --- decoder --------------------------------------------------------

// wireDec is a bounds-checked cursor over a binary payload. All methods
// are no-ops once err is set, so decodeWire bodies read fields
// unconditionally and check err once. Malformed input (truncation,
// oversized length prefixes) sets err; nothing panics — chaos-duplicated
// and fuzz-generated bytes reach these decoders.
type wireDec struct {
	b   []byte
	off int
	err error
}

func (d *wireDec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("dist: wire: bad %s at offset %d", what, d.off)
	}
}

func (d *wireDec) remaining() int { return len(d.b) - d.off }

func (d *wireDec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.off += n
	return v
}

func (d *wireDec) int_() int {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail("varint")
		return 0
	}
	d.off += n
	return int(v)
}

func (d *wireDec) i32() int32 { return int32(d.int_()) }

func (d *wireDec) f64() float64 {
	if d.err != nil {
		return 0
	}
	if d.remaining() < 8 {
		d.fail("float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off:]))
	d.off += 8
	return v
}

func (d *wireDec) bool_() bool {
	if d.err != nil {
		return false
	}
	if d.remaining() < 1 {
		d.fail("bool")
		return false
	}
	v := d.b[d.off] != 0
	d.off++
	return v
}

// sliceLen validates a length prefix against the bytes actually left
// (elemSize ≥ 1), so a corrupt prefix cannot drive a huge allocation.
func (d *wireDec) sliceLen(elemSize int) int {
	n := d.uvarint()
	if d.err != nil {
		return 0
	}
	if n > uint64(d.remaining()/elemSize) {
		d.fail("length prefix")
		return 0
	}
	return int(n)
}

func (d *wireDec) f64s(dst []float64) []float64 {
	n := d.sliceLen(8)
	if d.err != nil {
		return dst
	}
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = d.f64()
	}
	return dst
}

func (d *wireDec) i32s(dst []int32) []int32 {
	n := d.sliceLen(1)
	if d.err != nil {
		return dst
	}
	if cap(dst) < n {
		dst = make([]int32, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = d.i32()
	}
	if d.err != nil {
		return dst[:0]
	}
	return dst
}

func (d *wireDec) bools(dst []bool) []bool {
	n := d.uvarint()
	if d.err != nil {
		return dst
	}
	nb := (n + 7) / 8
	if nb > uint64(d.remaining()) {
		d.fail("bool mask length")
		return dst
	}
	if cap(dst) < int(n) {
		dst = make([]bool, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = d.b[d.off+i/8]&(1<<(i%8)) != 0
	}
	d.off += int(nb)
	return dst
}

func (d *wireDec) str() string {
	n := d.sliceLen(1)
	if d.err != nil {
		return ""
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s
}

func (d *wireDec) strs(dst []string) []string {
	n := d.sliceLen(1)
	if d.err != nil {
		return dst
	}
	if cap(dst) < n {
		dst = make([]string, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = d.str()
	}
	if d.err != nil {
		return dst[:0]
	}
	return dst
}

func (d *wireDec) rows(dst [][]float64) [][]float64 {
	n := d.sliceLen(1)
	if d.err != nil {
		return dst
	}
	if cap(dst) < n {
		next := make([][]float64, n)
		copy(next, dst)
		dst = next
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = d.f64s(dst[i])
	}
	if d.err != nil {
		return dst[:0]
	}
	return dst
}

// --- per-payload encodings ------------------------------------------

func (tokenPayload) wireID() byte { return wireToken }
func (p tokenPayload) wireSize() int {
	return 3*maxV + 8 + sizeBools(p.Ejected)
}
func (p tokenPayload) appendWire(b []byte) []byte {
	b = appendInt(b, p.Iteration)
	b = appendF64(b, p.Norm)
	b = appendInt(b, p.Epoch)
	b = appendInt(b, p.Hops)
	return appendBools(b, p.Ejected)
}
func (p *tokenPayload) decodeWire(d *wireDec) {
	p.Iteration = d.int_()
	p.Norm = d.f64()
	p.Epoch = d.int_()
	p.Hops = d.int_()
	p.Ejected = d.bools(p.Ejected)
}

func (queryPayload) wireID() byte  { return wireQuery }
func (queryPayload) wireSize() int { return 2 * maxV }
func (p queryPayload) appendWire(b []byte) []byte {
	b = appendInt(b, p.User)
	return appendInt(b, p.Seq)
}
func (p *queryPayload) decodeWire(d *wireDec) {
	p.User = d.int_()
	p.Seq = d.int_()
}

func (ratesPayload) wireID() byte    { return wireRates }
func (p ratesPayload) wireSize() int { return maxV + sizeF64s(p.Avail) }
func (p ratesPayload) appendWire(b []byte) []byte {
	b = appendF64s(b, p.Avail)
	return appendInt(b, p.Seq)
}
func (p *ratesPayload) decodeWire(d *wireDec) {
	p.Avail = d.f64s(p.Avail)
	p.Seq = d.int_()
}

func (strategyPayload) wireID() byte    { return wireStrategy }
func (p strategyPayload) wireSize() int { return 2*maxV + sizeF64s(p.S) }
func (p strategyPayload) appendWire(b []byte) []byte {
	b = appendInt(b, p.User)
	b = appendF64s(b, p.S)
	return appendInt(b, p.Seq)
}
func (p *strategyPayload) decodeWire(d *wireDec) {
	p.User = d.int_()
	p.S = d.f64s(p.S)
	p.Seq = d.int_()
}

func (pingPayload) wireID() byte                 { return wirePing }
func (pingPayload) wireSize() int                { return maxV }
func (p pingPayload) appendWire(b []byte) []byte { return appendInt(b, p.Seq) }
func (p *pingPayload) decodeWire(d *wireDec)     { p.Seq = d.int_() }

func (ejectPayload) wireID() byte  { return wireEject }
func (ejectPayload) wireSize() int { return 2 * maxV }
func (p ejectPayload) appendWire(b []byte) []byte {
	b = appendInt(b, p.User)
	return appendInt(b, p.Seq)
}
func (p *ejectPayload) decodeWire(d *wireDec) {
	p.User = d.int_()
	p.Seq = d.int_()
}

func (ackPayload) wireID() byte                 { return wireAck }
func (ackPayload) wireSize() int                { return maxV }
func (p ackPayload) appendWire(b []byte) []byte { return appendInt(b, p.Seq) }
func (p *ackPayload) decodeWire(d *wireDec)     { p.Seq = d.int_() }

func (reqBidPayload) wireID() byte  { return wireReqBid }
func (reqBidPayload) wireSize() int { return 2 * maxV }
func (p reqBidPayload) appendWire(b []byte) []byte {
	b = appendInt(b, p.Computer)
	return appendInt(b, p.Attempt)
}
func (p *reqBidPayload) decodeWire(d *wireDec) {
	p.Computer = d.int_()
	p.Attempt = d.int_()
}

func (bidPayload) wireID() byte  { return wireBid }
func (bidPayload) wireSize() int { return maxV + 8 }
func (p bidPayload) appendWire(b []byte) []byte {
	b = appendInt(b, p.Computer)
	return appendF64(b, p.Bid)
}
func (p *bidPayload) decodeWire(d *wireDec) {
	p.Computer = d.int_()
	p.Bid = d.f64()
}

func (awardPayload) wireID() byte  { return wireAward }
func (awardPayload) wireSize() int { return 16 }
func (p awardPayload) appendWire(b []byte) []byte {
	b = appendF64(b, p.Load)
	return appendF64(b, p.Payment)
}
func (p *awardPayload) decodeWire(d *wireDec) {
	p.Load = d.f64()
	p.Payment = d.f64()
}

func (hierTokenPayload) wireID() byte { return wireHierToken }
func (p hierTokenPayload) wireSize() int {
	return 4*maxV + 8 + sizeF64s(p.Loads)
}
func (p hierTokenPayload) appendWire(b []byte) []byte {
	b = appendInt(b, p.Epoch)
	b = appendInt(b, p.Hop)
	b = appendInt(b, p.Round)
	b = appendInt(b, p.Sweep)
	b = appendF64(b, p.Norm)
	return appendF64s(b, p.Loads)
}
func (p *hierTokenPayload) decodeWire(d *wireDec) {
	p.Epoch = d.int_()
	p.Hop = d.int_()
	p.Round = d.int_()
	p.Sweep = d.int_()
	p.Norm = d.f64()
	p.Loads = d.f64s(p.Loads)
}

func (hierPartialPayload) wireID() byte { return wireHierPartial }
func (p hierPartialPayload) wireSize() int {
	return 3*maxV + sizeI32s(p.Shards) + sizeF64s(p.Norms) + sizeI32s(p.Sweeps) +
		sizeRows(p.Loads) + sizeI32s(p.Ejected)
}
func (p hierPartialPayload) appendWire(b []byte) []byte {
	b = appendInt(b, p.Round)
	b = appendInt(b, p.MEpoch)
	b = appendI32s(b, p.Shards)
	b = appendF64s(b, p.Norms)
	b = appendI32s(b, p.Sweeps)
	b = appendRows(b, p.Loads)
	b = appendI32s(b, p.Ejected)
	return appendInt(b, p.Seq)
}
func (p *hierPartialPayload) decodeWire(d *wireDec) {
	p.Round = d.int_()
	p.MEpoch = d.int_()
	p.Shards = d.i32s(p.Shards)
	p.Norms = d.f64s(p.Norms)
	p.Sweeps = d.i32s(p.Sweeps)
	p.Loads = d.rows(p.Loads)
	p.Ejected = d.i32s(p.Ejected)
	p.Seq = d.int_()
}

func (hierDownPayload) wireID() byte { return wireHierDown }
func (p hierDownPayload) wireSize() int {
	return 3*maxV + 2 + 8 + sizeI32s(p.Active) + sizeF64s(p.Loads) + sizeI32s(p.EjectedShards) +
		sizeI32s(p.JoinUsers) + sizeI32s(p.JoinShards) + sizeStrs(p.JoinNames) + sizeF64s(p.JoinPhis)
}
func (p hierDownPayload) appendWire(b []byte) []byte {
	b = appendInt(b, p.Round)
	b = appendInt(b, p.MEpoch)
	b = appendBool(b, p.Stop)
	b = appendBool(b, p.Star)
	b = appendF64(b, p.Norm)
	b = appendI32s(b, p.Active)
	b = appendF64s(b, p.Loads)
	b = appendI32s(b, p.EjectedShards)
	b = appendI32s(b, p.JoinUsers)
	b = appendI32s(b, p.JoinShards)
	b = appendStrs(b, p.JoinNames)
	b = appendF64s(b, p.JoinPhis)
	return appendInt(b, p.Seq)
}
func (p *hierDownPayload) decodeWire(d *wireDec) {
	p.Round = d.int_()
	p.MEpoch = d.int_()
	p.Stop = d.bool_()
	p.Star = d.bool_()
	p.Norm = d.f64()
	p.Active = d.i32s(p.Active)
	p.Loads = d.f64s(p.Loads)
	p.EjectedShards = d.i32s(p.EjectedShards)
	p.JoinUsers = d.i32s(p.JoinUsers)
	p.JoinShards = d.i32s(p.JoinShards)
	p.JoinNames = d.strs(p.JoinNames)
	p.JoinPhis = d.f64s(p.JoinPhis)
	p.Seq = d.int_()
}

func (hierReqPayload) wireID() byte  { return wireHierReq }
func (hierReqPayload) wireSize() int { return 2 * maxV }
func (p hierReqPayload) appendWire(b []byte) []byte {
	b = appendInt(b, p.Round)
	return appendInt(b, p.Seq)
}
func (p *hierReqPayload) decodeWire(d *wireDec) {
	p.Round = d.int_()
	p.Seq = d.int_()
}

func (hierSyncPayload) wireID() byte  { return wireHierSync }
func (hierSyncPayload) wireSize() int { return 2 * maxV }
func (p hierSyncPayload) appendWire(b []byte) []byte {
	b = appendInt(b, p.Epoch)
	return appendInt(b, p.Seq)
}
func (p *hierSyncPayload) decodeWire(d *wireDec) {
	p.Epoch = d.int_()
	p.Seq = d.int_()
}

func (hierRowPayload) wireID() byte { return wireHierRow }
func (p hierRowPayload) wireSize() int {
	return 3*maxV + 8 + sizeF64s(p.S)
}
func (p hierRowPayload) appendWire(b []byte) []byte {
	b = appendInt(b, p.User)
	b = appendInt(b, p.Epoch)
	b = appendInt(b, p.Seq)
	b = appendF64(b, p.PrevTime)
	return appendF64s(b, p.S)
}
func (p *hierRowPayload) decodeWire(d *wireDec) {
	p.User = d.int_()
	p.Epoch = d.int_()
	p.Seq = d.int_()
	p.PrevTime = d.f64()
	p.S = d.f64s(p.S)
}

func (hierRowsPayload) wireID() byte { return wireHierRows }
func (p hierRowsPayload) wireSize() int {
	return 2*maxV + sizeI32s(p.Users) + sizeI32s(p.Ejected) + sizeRows(p.Rows)
}
func (p hierRowsPayload) appendWire(b []byte) []byte {
	b = appendInt(b, p.Shard)
	b = appendInt(b, p.Seq)
	b = appendI32s(b, p.Users)
	b = appendI32s(b, p.Ejected)
	return appendRows(b, p.Rows)
}
func (p *hierRowsPayload) decodeWire(d *wireDec) {
	p.Shard = d.int_()
	p.Seq = d.int_()
	p.Users = d.i32s(p.Users)
	p.Ejected = d.i32s(p.Ejected)
	p.Rows = d.rows(p.Rows)
}

func (hierJoinPayload) wireID() byte { return wireHierJoin }
func (p hierJoinPayload) wireSize() int {
	return maxV + 8 + sizeStr(p.Name)
}
func (p hierJoinPayload) appendWire(b []byte) []byte {
	b = appendStr(b, p.Name)
	b = appendF64(b, p.Phi)
	return appendInt(b, p.Seq)
}
func (p *hierJoinPayload) decodeWire(d *wireDec) {
	p.Name = d.str()
	p.Phi = d.f64()
	p.Seq = d.int_()
}

func (hierJoinOKPayload) wireID() byte { return wireHierJoinOK }
func (p hierJoinOKPayload) wireSize() int {
	return 3*maxV + 1 + sizeStr(p.Name) + sizeStr(p.Reason)
}
func (p hierJoinOKPayload) appendWire(b []byte) []byte {
	b = appendStr(b, p.Name)
	b = appendInt(b, p.User)
	b = appendInt(b, p.Shard)
	b = appendBool(b, p.Reject)
	b = appendStr(b, p.Reason)
	return appendInt(b, p.Seq)
}
func (p *hierJoinOKPayload) decodeWire(d *wireDec) {
	p.Name = d.str()
	p.User = d.int_()
	p.Shard = d.int_()
	p.Reject = d.bool_()
	p.Reason = d.str()
	p.Seq = d.int_()
}

// EstimatePayload is the wire form of a ctrl.Estimate, which has the
// same fields and converts to and from it. dist owns the layout; ctrl
// owns the meaning and the validity checks.
type EstimatePayload struct {
	Seq    int
	Time   float64
	Phi    []float64
	Mu     []float64
	Source string
}

func (EstimatePayload) wireID() byte { return wireEstimate }
func (p EstimatePayload) wireSize() int {
	return maxV + 8 + sizeF64s(p.Phi) + sizeF64s(p.Mu) + sizeStr(p.Source)
}
func (p EstimatePayload) appendWire(b []byte) []byte {
	b = appendInt(b, p.Seq)
	b = appendF64(b, p.Time)
	b = appendF64s(b, p.Phi)
	b = appendF64s(b, p.Mu)
	return appendStr(b, p.Source)
}
func (p *EstimatePayload) decodeWire(d *wireDec) {
	p.Seq = d.int_()
	p.Time = d.f64()
	p.Phi = d.f64s(p.Phi)
	p.Mu = d.f64s(p.Mu)
	p.Source = d.str()
}
