package tcp

import (
	"cmp"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"time"

	"quiclab/internal/cc"
	"quiclab/internal/netem"
	"quiclab/internal/ranges"
	"quiclab/internal/sim"
	"quiclab/internal/trace"
	"quiclab/internal/wire"
)

// --- Reference model ------------------------------------------------------

// legacySender is the sender half of a connection as it was before the
// sequence-sorted scoreboard: records in a map keyed by sequence, walked
// in full, in sequence order, on every ack. The differential test below
// drives it and a real Conn with the same events and requires identical
// cc calls, trace events and retransmission queues. Timers, the receive
// side and new-data sending are left out; the harness drives those
// directly.
type legacySender struct {
	sim          *sim.Simulator
	cc           *ccRecorder
	tr           *trace.Recorder
	disableDSACK bool

	sndUna, sndNxt uint64
	sentSegs       map[uint64]*legacySeg
	sacked         ranges.Set
	dupThresh      int
	dupAcks        int
	nextSendIdx    uint64
	retransQ       []ranges.Range
	outBytes       int
	rtoCount       int
	lastRTOAt      time.Duration
	tlpFired       bool
	tlpProbeSeq    uint64
	tlpProbeSet    bool
	srtt, rttvar   time.Duration
}

type legacySeg struct {
	seq, end uint64
	sendIdx  uint64
	rexmit   bool
	fackBase uint64
}

func newLegacySender(s *sim.Simulator, disableDSACK bool) *legacySender {
	return &legacySender{
		sim: s, cc: &ccRecorder{}, tr: trace.NewDetailed(), disableDSACK: disableDSACK,
		sentSegs: make(map[uint64]*legacySeg), dupThresh: initialDupThresh, nextSendIdx: 1,
	}
}

func (c *legacySender) untrack(ss *legacySeg) {
	delete(c.sentSegs, ss.seq)
	c.outBytes -= int(ss.end - ss.seq)
	if c.outBytes < 0 {
		c.outBytes = 0
	}
}

// maybeSend is the retransmission half of Conn.maybeSend.
func (c *legacySender) maybeSend() {
	for len(c.retransQ) > 0 {
		r := c.retransQ[0]
		if r.End <= c.sndUna {
			c.retransQ = c.retransQ[1:]
			continue
		}
		if r.Start < c.sndUna {
			r.Start = c.sndUna
		}
		if !c.cc.CanSend(c.outBytes) {
			break
		}
		c.retransQ = c.retransQ[1:]
		for seq := r.Start; seq < r.End; {
			end := min(seq+wire.TCPMSS, r.End)
			c.transmit(seq, end, true)
			seq = end
		}
	}
	c.armRTO()
}

// armRTO keeps only the backoff-cap trace of Conn.armRTO.
func (c *legacySender) armRTO() {
	if len(c.sentSegs) == 0 && len(c.retransQ) == 0 {
		return
	}
	if !c.tlpFired && c.rtoCount == 0 {
		return
	}
	delay := c.srttOr(200*time.Millisecond) + 4*c.rttvar
	if delay < minRTO {
		delay = minRTO
	}
	delay <<= uint(min(c.rtoCount, 6))
	if delay > maxRTOBackoffDelay {
		c.tr.RTOBackoffCapped(c.sim.Now())
		c.tr.Count("rto_backoff_capped")
	}
}

func (c *legacySender) transmit(seq, end uint64, rexmit bool) {
	now := c.sim.Now()
	ss := &legacySeg{seq: seq, end: end, sendIdx: c.nextSendIdx, rexmit: rexmit, fackBase: c.highestSacked()}
	c.nextSendIdx++
	if old, ok := c.sentSegs[seq]; ok {
		if old.end == end {
			ss.rexmit = true
		}
		c.outBytes -= int(old.end - old.seq)
	}
	c.sentSegs[seq] = ss
	c.outBytes += int(end - seq)
	c.cc.OnPacketSent(now, ss.sendIdx, int(end-seq))
	c.tr.PacketSent(now, seq, int(end-seq), 0)
}

func (c *legacySender) onTLP() {
	if len(c.sentSegs) == 0 {
		c.maybeSend()
		return
	}
	c.tlpFired = true
	c.tr.TLPFired(c.sim.Now())
	c.cc.OnTLP(c.sim.Now())
	var tail *legacySeg
	for _, ss := range c.sentSegs {
		if tail == nil || ss.seq > tail.seq {
			tail = ss
		}
	}
	c.tlpProbeSeq = tail.seq
	c.tlpProbeSet = true
	c.transmit(tail.seq, tail.end, true)
	c.armRTO()
}

func (c *legacySender) srttOr(def time.Duration) time.Duration {
	if c.srtt == 0 {
		return def
	}
	return c.srtt
}

func (c *legacySender) onRTO() {
	if len(c.sentSegs) == 0 && len(c.retransQ) == 0 {
		return
	}
	c.rtoCount++
	c.lastRTOAt = c.sim.Now()
	c.tr.RTOFired(c.sim.Now())
	c.cc.OnRTO(c.sim.Now())
	for _, seq := range c.seqOrder() {
		ss := c.sentSegs[seq]
		if c.sacked.ContainsRange(ss.seq, ss.end) {
			continue
		}
		c.untrack(ss)
		c.retransQ = append(c.retransQ, ranges.Range{Start: ss.seq, End: ss.end})
	}
	// Holes declared lost earlier but not yet resent go ahead of the
	// requeued segments: like Conn, resend in sequence order.
	slices.SortFunc(c.retransQ, func(a, b ranges.Range) int { return cmp.Compare(a.Start, b.Start) })
	c.maybeSend()
}

func (c *legacySender) updateRTT(sample time.Duration) {
	if sample <= 0 {
		sample = time.Millisecond / 2
	}
	if c.srtt == 0 {
		c.srtt = sample
		c.rttvar = sample / 2
		return
	}
	d := c.srtt - sample
	if d < 0 {
		d = -d
	}
	c.rttvar = (3*c.rttvar + d) / 4
	c.srtt = (7*c.srtt + sample) / 8
}

func (c *legacySender) onAckInfo(seg *wire.TCPSegment) {
	if seg.DSACK != nil && !c.disableDSACK {
		c.onDSACK(*seg.DSACK)
	}
	for _, b := range seg.SACK {
		if b.End > c.sndUna {
			c.sacked.Add(maxU64(b.Start, c.sndUna), b.End)
		}
	}
	if seg.AckNum > c.sndUna {
		c.ackSegmentsBelow(seg.AckNum, seg.TSEcr)
		c.sndUna = seg.AckNum
		c.sacked.RemoveBelow(c.sndUna)
		c.dupAcks = 0
		c.rtoCount = 0
		c.tlpFired = false
		c.armRTO()
	} else if seg.Length == 0 && seg.AckNum == c.sndUna && c.sndNxt > c.sndUna && !seg.SYN {
		c.dupAcks++
	}
	c.ackSackedSegments()
	c.detectLosses()
}

func (c *legacySender) ackSegmentsBelow(ackNum uint64, tsecr uint32) {
	now := c.sim.Now()
	sample := now - time.Duration(tsecr)*time.Millisecond
	sample = sample / time.Millisecond * time.Millisecond
	sampled := false
	for _, seq := range c.seqOrder() {
		ss := c.sentSegs[seq]
		if ss.end > ackNum {
			break
		}
		rtt := time.Duration(0)
		if !ss.rexmit && !sampled && tsecr > 0 {
			rtt = sample
			sampled = true
			c.updateRTT(rtt)
			c.tr.RTTSample(now, rtt, c.srtt, 0, c.rttvar)
		}
		c.untrack(ss)
		c.tr.PacketAcked(now, ss.seq, int(ss.end-ss.seq))
		c.cc.OnAck(now, ss.sendIdx, int(ss.end-ss.seq), rtt, c.outBytes)
	}
}

func (c *legacySender) ackSackedSegments() {
	now := c.sim.Now()
	for _, seq := range c.seqOrder() {
		ss := c.sentSegs[seq]
		if c.sacked.ContainsRange(ss.seq, ss.end) {
			c.untrack(ss)
			c.tr.PacketAcked(now, ss.seq, int(ss.end-ss.seq))
			c.cc.OnAck(now, ss.sendIdx, int(ss.end-ss.seq), 0, c.outBytes)
		}
	}
}

// seqOrder returns the tracked sequences in ascending order.
func (c *legacySender) seqOrder() []uint64 {
	seqs := make([]uint64, 0, len(c.sentSegs))
	for seq := range c.sentSegs {
		seqs = append(seqs, seq)
	}
	slices.Sort(seqs)
	return seqs
}

func (c *legacySender) highestSacked() uint64 {
	r, ok := c.sacked.Last()
	if !ok {
		return 0
	}
	return r.End
}

func (c *legacySender) detectLosses() {
	now := c.sim.Now()
	high := c.highestSacked()
	thresholdBytes := uint64(c.dupThresh) * uint64(wire.TCPMSS)
	var lost []*legacySeg
	for _, seq := range c.seqOrder() {
		ss := c.sentSegs[seq]
		if ss.seq >= high {
			break
		}
		if ss.rexmit {
			continue
		}
		base := max(ss.end, ss.fackBase)
		if high >= base+thresholdBytes {
			lost = append(lost, ss)
		}
	}
	thresh := c.dupThresh
	if out := len(c.sentSegs); out >= 2 && out < 4 && thresh > out-1 {
		thresh = out - 1
	}
	if c.dupAcks >= thresh {
		if ss, ok := c.sentSegs[c.sndUna]; ok && !ss.rexmit {
			lost = append(lost, ss) // declared once: see the skip below
		}
		c.dupAcks = 0
	}
	for _, ss := range lost {
		if _, ok := c.sentSegs[ss.seq]; !ok {
			continue
		}
		c.untrack(ss)
		c.cc.OnLoss(now, ss.sendIdx, int(ss.end-ss.seq), c.outBytes)
		c.retransQ = append(c.retransQ, ranges.Range{Start: ss.seq, End: ss.end})
		c.tr.Count("declared_lost")
		c.tr.PacketLost(now, ss.seq, int(ss.end-ss.seq))
	}
}

func (c *legacySender) onDSACK(d wire.SACKBlock) {
	c.tr.Count("spurious_rexmit")
	c.tr.SpuriousLoss(c.sim.Now(), d.Start)
	if c.tlpProbeSet && d.Start <= c.tlpProbeSeq && c.tlpProbeSeq < d.End {
		c.tlpProbeSet = false
		return
	}
	if c.lastRTOAt > 0 && c.sim.Now()-c.lastRTOAt < 2*c.srttOr(200*time.Millisecond)+minRTO {
		return
	}
	c.dupThresh = min(c.dupThresh+c.dupThresh/2+1, maxDupThresh)
}

// --- Recording congestion controller --------------------------------------

type ccCall struct {
	op       string
	idx      uint64
	bytes    int
	rtt      time.Duration
	inFlight int
}

// ccRecorder logs the calls a sender makes and permits exactly allow
// further transmissions.
type ccRecorder struct {
	allow int
	calls []ccCall
}

func (r *ccRecorder) OnPacketSent(_ time.Duration, idx uint64, bytes int) {
	r.allow--
	r.calls = append(r.calls, ccCall{op: "sent", idx: idx, bytes: bytes})
}

func (r *ccRecorder) OnAck(_ time.Duration, idx uint64, bytes int, rtt time.Duration, inFlight int) {
	r.calls = append(r.calls, ccCall{"ack", idx, bytes, rtt, inFlight})
}

func (r *ccRecorder) OnLoss(_ time.Duration, idx uint64, bytes int, inFlight int) {
	r.calls = append(r.calls, ccCall{op: "loss", idx: idx, bytes: bytes, inFlight: inFlight})
}

func (r *ccRecorder) OnRTO(time.Duration)                   { r.calls = append(r.calls, ccCall{op: "rto"}) }
func (r *ccRecorder) OnTLP(time.Duration)                   { r.calls = append(r.calls, ccCall{op: "tlp"}) }
func (r *ccRecorder) SetAppLimited(time.Duration, cc.Limit) {}
func (r *ccRecorder) CanSend(int) bool                      { return r.allow > 0 }
func (r *ccRecorder) Window() int                           { return 0 }
func (r *ccRecorder) PacingRate() float64                   { return 0 }
func (r *ccRecorder) State() cc.State                       { return cc.StateCongestionAvoidance }

// --- Differential harness ---------------------------------------------------

type flightPkt struct {
	seq, end uint64
	tsval    uint32
}

// scoreboardRig drives a real Conn and the legacy model in lockstep
// against a simulated receiver: segments are delivered, reordered and
// dropped at random, and acks carry the receiver's cumulative ack, up
// to three SACK blocks and DSACKs, exactly as fillAckFields builds them.
type scoreboardRig struct {
	t                     *testing.T
	rng                   *rand.Rand
	sim                   *sim.Simulator
	c                     *Conn
	rec                   *ccRecorder
	tr                    *trace.Recorder
	ref                   *legacySender
	seenCalls, seenEvents int // compared by earlier checks

	flight []flightPkt
	rcv    ranges.Set
	rcvNxt uint64
	lastTS uint32
	dsack  *wire.SACKBlock
}

func newScoreboardRig(t *testing.T, seed int64) *scoreboardRig {
	s := sim.New(seed)
	tr := trace.NewDetailed()
	disableDSACK := seed%5 == 0
	e := NewEndpoint(netem.NewNetwork(s), 1, Config{Tracer: tr, IdleTimeout: -1, DisableDSACK: disableDSACK})
	c := newConn(e, 2, 1, true)
	c.tcpEstablished = true
	rec := &ccRecorder{}
	c.cc = rec
	return &scoreboardRig{
		t: t, rng: rand.New(rand.NewSource(seed)), sim: s, c: c, rec: rec, tr: tr,
		ref: newLegacySender(s, disableDSACK),
	}
}

func (g *scoreboardRig) advance(d time.Duration) {
	g.c.rtoTimer.Stop()
	to := g.sim.Now() + d
	g.sim.ScheduleAt(to, func() {})
	g.sim.RunUntil(to)
}

func (g *scoreboardRig) step() string {
	c, ref := g.c, g.ref
	switch r := g.rng.Intn(100); {
	case r < 25:
		if c.sndNxt-c.sndUna > 40*wire.TCPMSS {
			return "idle"
		}
		n := uint64(wire.TCPMSS)
		if g.rng.Intn(4) == 0 {
			n = 1 + uint64(g.rng.Intn(wire.TCPMSS))
		}
		end := c.sndNxt + n
		c.transmit(c.sndNxt, end, false)
		ref.transmit(ref.sndNxt, end, false)
		c.sndNxt, ref.sndNxt = end, end
		return "new"
	case r < 35:
		g.rec.allow, ref.cc.allow = 1, 1
		c.maybeSend()
		ref.maybeSend()
		g.rec.allow, ref.cc.allow = 0, 0
		return "send"
	case r < 65:
		if len(g.flight) == 0 {
			return "idle"
		}
		g.deliver(g.takeFlight())
		if g.rng.Intn(10) < 7 {
			g.ack()
		}
		return "deliver"
	case r < 72:
		g.ack()
		return "ack"
	case r < 82:
		if len(g.flight) > 0 {
			g.takeFlight()
		}
		return "drop"
	case r < 92:
		g.advance(time.Duration(1+g.rng.Intn(20)) * time.Millisecond)
		return "advance"
	case r < 97:
		c.onTLP()
		ref.onTLP()
		return "tlp"
	default:
		if c.rtoCount >= 4 {
			return "idle"
		}
		c.onRTO()
		ref.onRTO()
		return "rto"
	}
}

func (g *scoreboardRig) takeFlight() flightPkt {
	i := g.rng.Intn(len(g.flight))
	p := g.flight[i]
	g.flight = append(g.flight[:i], g.flight[i+1:]...)
	return p
}

// deliver is Conn.onData's receive-set bookkeeping.
func (g *scoreboardRig) deliver(p flightPkt) {
	g.lastTS = p.tsval
	if p.end <= g.rcvNxt || !g.rcv.Add(maxU64(p.seq, g.rcvNxt), p.end) {
		g.dsack = &wire.SACKBlock{Start: p.seq, End: p.end}
		return
	}
	g.rcvNxt = g.rcv.ContiguousEnd(g.rcvNxt)
	g.rcv.RemoveBelow(g.rcvNxt)
}

// ack builds the receiver's next ack (as fillAckFields does) and feeds
// it to both senders.
func (g *scoreboardRig) ack() {
	mk := func() *wire.TCPSegment {
		seg := &wire.TCPSegment{ACK: true, AckNum: g.rcvNxt, Window: 1 << 30, TSEcr: g.lastTS}
		if g.dsack != nil {
			d := *g.dsack
			seg.DSACK = &d
		}
		blocks := g.rcv.AppendAbove(nil, g.rcvNxt)
		if len(blocks) > 3 {
			blocks = blocks[len(blocks)-3:]
		}
		for _, b := range blocks {
			seg.SACK = append(seg.SACK, wire.SACKBlock{Start: b.Start, End: b.End})
		}
		return seg
	}
	g.dsack = nil
	g.c.onAckInfo(mk())
	g.ref.onAckInfo(mk())
}

// check compares the two senders and the scoreboard's invariants, and
// puts every new transmission on the wire.
func (g *scoreboardRig) check(op string, n int) {
	t, c, ref := g.t, g.c, g.ref
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("op %d (%s): %s", n, op, fmt.Sprintf(format, args...))
	}
	if !slices.Equal(g.rec.calls[g.seenCalls:], ref.cc.calls[min(g.seenCalls, len(ref.cc.calls)):]) {
		fail("cc calls diverge:%s", firstDiff(g.rec.calls, ref.cc.calls))
	}
	if !slices.Equal(g.tr.Events[g.seenEvents:], ref.tr.Events[min(g.seenEvents, len(ref.tr.Events)):]) {
		fail("trace events diverge:%s", firstDiff(g.tr.Events, ref.tr.Events))
	}
	if !maps.Equal(g.tr.Counters, ref.tr.Counters) {
		fail("counters %v, legacy %v", g.tr.Counters, ref.tr.Counters)
	}
	if !slices.Equal(c.retransQ, ref.retransQ) {
		fail("retransQ %v, legacy %v", c.retransQ, ref.retransQ)
	}
	if c.outBytes != ref.outBytes || c.sndUna != ref.sndUna || c.dupThresh != ref.dupThresh ||
		c.dupAcks != ref.dupAcks || c.srtt != ref.srtt || c.rttvar != ref.rttvar {
		fail("sender state diverges: out %d/%d una %d/%d dupThresh %d/%d dupAcks %d/%d srtt %v/%v",
			c.outBytes, ref.outBytes, c.sndUna, ref.sndUna, c.dupThresh, ref.dupThresh,
			c.dupAcks, ref.dupAcks, c.srtt, ref.srtt)
	}

	// Scoreboard invariants: sorted and non-overlapping, the tracked set
	// is the legacy map, and outBytes is the tracked bytes.
	b := &c.sb
	live, out := 0, 0
	for i := b.head; i < len(b.segs); i++ {
		s := b.segs[i]
		if s.end <= s.seq || (i > b.head && b.segs[i-1].end > s.seq) {
			fail("scoreboard not sorted/non-overlapping at %d: %+v after %+v", i, s, b.segs[i-1])
		}
		if s.lost {
			if _, ok := ref.sentSegs[s.seq]; ok {
				fail("seq %d lost here, tracked by legacy", s.seq)
			}
			continue
		}
		live++
		out += int(s.end - s.seq)
		l, ok := ref.sentSegs[s.seq]
		if !ok || l.end != s.end || l.sendIdx != s.sendIdx || l.rexmit != s.rexmit || l.fackBase != s.fackBase {
			fail("record %+v, legacy %+v", s, l)
		}
	}
	if live != b.live || live != len(ref.sentSegs) {
		fail("tracked %d, counted %d, legacy %d", live, b.live, len(ref.sentSegs))
	}
	if out != c.outBytes {
		fail("outBytes %d, tracked bytes %d", c.outBytes, out)
	}

	for _, e := range g.tr.Events[g.seenEvents:] {
		if e.Type == trace.EventPacketSent {
			g.flight = append(g.flight, flightPkt{e.PN, e.PN + uint64(e.Size), wire.TCPTimestampNow(e.T)})
		}
	}
	g.seenCalls, g.seenEvents = len(g.rec.calls), len(g.tr.Events)
}

func firstDiff[T comparable](got, want []T) string {
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Sprintf(" #%d: got %+v, legacy %+v", i, got[i], want[i])
		}
	}
	return fmt.Sprintf(" lengths %d, legacy %d", len(got), len(want))
}

// TestScoreboardMatchesLegacy is the differential test for the
// sequence-sorted scoreboard: over random transmit, delivery, loss,
// reordering, SACK, DSACK, TLP and RTO sequences it must issue exactly
// the callbacks, in exactly the order, of the legacy map scoreboard.
func TestScoreboardMatchesLegacy(t *testing.T) {
	seeds, steps := 300, 600
	if testing.Short() {
		seeds = 60
	}
	ops := map[string]int{}
	var acks, lost, reorderedBatches int
	for seed := int64(1); seed <= int64(seeds); seed++ {
		g := newScoreboardRig(t, seed)
		g.advance(5 * time.Millisecond)
		for n := 0; n < steps; n++ {
			op := g.step()
			ops[op]++
			g.check(op, n)
		}
		var prev uint64
		for _, call := range g.rec.calls {
			switch call.op {
			case "ack":
				acks++
				if call.idx < prev {
					reorderedBatches++
				}
				prev = call.idx
			case "loss":
				lost++
			default:
				prev = 0
			}
		}
	}
	// The run must reach the paths where visiting order matters.
	if acks == 0 || lost == 0 || ops["tlp"] == 0 || ops["rto"] == 0 || reorderedBatches == 0 {
		t.Fatalf("coverage too thin: ops %v, acks %d, losses %d, out-of-order ack batches %d",
			ops, acks, lost, reorderedBatches)
	}
	t.Logf("ops %v; %d acks (%d out of send order), %d losses", ops, acks, reorderedBatches, lost)
}

// TestCumulativeAckVisitsSequenceOrder pins the visiting policy on its
// own: a cumulative ack covering a fast-retransmitted hole and newer
// original segments acks them in ascending sequence, and the RTT sample
// comes from the lowest-sequence original.
func TestCumulativeAckVisitsSequenceOrder(t *testing.T) {
	g := newScoreboardRig(t, 1)
	c := g.c
	g.advance(5 * time.Millisecond)
	mss := uint64(wire.TCPMSS)
	send := func(n int) {
		for ; n > 0; n-- {
			c.transmit(c.sndNxt, c.sndNxt+mss, false)
			c.sndNxt += mss
		}
	}
	ack := func(ackNum uint64, sack ...wire.SACKBlock) {
		c.onAckInfo(&wire.TCPSegment{ACK: true, AckNum: ackNum, Window: 1 << 30,
			TSEcr: wire.TCPTimestampNow(5 * time.Millisecond), SACK: sack})
	}

	send(6)                                          // segments 0-5
	ack(0, wire.SACKBlock{Start: mss, End: 5 * mss}) // 1-4 SACKed: 0 is lost
	if len(c.retransQ) != 1 || c.retransQ[0].Start != 0 {
		t.Fatalf("hole not declared lost: retransQ %v", c.retransQ)
	}
	g.advance(2 * time.Millisecond)
	ack(0, wire.SACKBlock{Start: mss, End: 5 * mss}) // another SACK pass first
	g.rec.allow = 1
	c.maybeSend() // retransmits segment 0
	send(1)       // segment 6
	g.advance(10 * time.Millisecond)

	seqOf := map[uint64]uint64{} // cc packet index -> sequence
	var sent []uint64
	for _, e := range g.tr.Events {
		if e.Type == trace.EventPacketSent {
			sent = append(sent, e.PN)
		}
	}
	n := 0
	for _, call := range g.rec.calls {
		if call.op == "sent" {
			seqOf[call.idx] = sent[n]
			n++
		}
	}
	mark := len(g.rec.calls)
	ack(7 * mss)

	var got []uint64
	var sampled []uint64
	for _, call := range g.rec.calls[mark:] {
		if call.op != "ack" {
			continue
		}
		got = append(got, seqOf[call.idx]/mss)
		if call.rtt > 0 {
			sampled = append(sampled, seqOf[call.idx]/mss)
		}
	}
	if want := []uint64{0, 5, 6}; !slices.Equal(got, want) {
		t.Errorf("OnAck visited segments %v, want %v (ascending sequence)", got, want)
	}
	if !slices.Equal(sampled, []uint64{5}) {
		t.Errorf("RTT sampled from segments %v, want [5] (lowest original)", sampled)
	}
}
