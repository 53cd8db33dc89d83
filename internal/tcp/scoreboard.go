package tcp

import "quiclab/internal/ranges"

// sentSeg is the scoreboard's record of one transmitted sequence range,
// kept for RTT sampling and loss detection. Unlike QUIC, a
// retransmission reuses the same sequence range (the retransmission
// ambiguity the paper contrasts with QUIC's fresh packet numbers), so it
// overwrites the record in place.
type sentSeg struct {
	seq, end uint64
	sendIdx  uint64 // transmit-log position of the latest transmission
	// fackBase is the highest SACKed sequence at transmit time: loss
	// re-detection for a retransmission requires new SACK evidence
	// beyond this point (prevents retransmit storms).
	fackBase uint64
	// ord is the transmit-log position of this sequence's first
	// surviving occurrence: the order in which batches are visited.
	ord    uint64
	rexmit bool
	// lost marks a record declared lost (or requeued by an RTO) and not
	// yet retransmitted. It no longer counts as in flight; it stays on
	// the board only to remember its transmit-log occurrences.
	lost bool
}

// logEnt is one transmit-log position: the sequence transmitted there,
// and whether that position is the ord of a tracked record.
type logEnt struct {
	seq   uint64
	first bool
}

// scoreboard is the sender's record of transmitted, not yet
// cumulatively acked segments, sorted by sequence so that every ack
// touches only what it acknowledges: a cumulative ack pops a prefix,
// SACK and loss passes stop at the highest SACKed byte, the dupack head
// is the first record and the tail-loss probe the last (DESIGN.md §12).
//
// Callbacks are issued in the order a transmit-ordered log of sequence
// numbers would visit them — each record at its sequence's first
// occurrence still in the log, where the log's head is trimmed past
// positions whose sequence is no longer tracked (see compact).
// Sequence order alone differs from that order once retransmissions
// interleave, and the order is observable: it decides which record
// carries the RTT sample and the in-flight value each cc callback sees.
// Each batch is therefore sorted by ord before it is returned. The log
// keeps one entry per transmission since the oldest tracked ord, so its
// head trim is amortised O(1) per transmission.
type scoreboard struct {
	segs []sentSeg // segs[head:] sorted by seq, non-overlapping
	head int
	live int // records not marked lost

	log     []logEnt // log[logHead:] holds positions logBase, logBase+1, ...
	logHead int
	logBase uint64

	batch []sentSeg // scratch returned by the take/pop methods
}

// reset empties the board, keeping its storage.
func (b *scoreboard) reset() {
	*b = scoreboard{segs: b.segs[:0], log: b.log[:0], batch: b.batch[:0]}
}

// find returns the index of the record for seq, or the index where one
// would be inserted.
func (b *scoreboard) find(seq uint64) (int, bool) {
	lo, hi := b.head, len(b.segs)
	if hi > lo && b.segs[hi-1].seq < seq {
		return hi, false // new data: the common case
	}
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if b.segs[m].seq < seq {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(b.segs) && b.segs[lo].seq == seq
}

// add records a transmission of [seq, end) at log position pos. A
// tracked record for seq is overwritten and its length returned (a
// same-range retransmission counts as rexmit); a lost one is revived.
func (b *scoreboard) add(seq, end, pos uint64, rexmit bool, fackBase uint64) (replaced int) {
	i, found := b.find(seq)
	ord := pos
	switch {
	case !found:
		b.live++
		if i == len(b.segs) {
			b.segs = appendSlid(b.segs, &b.head, sentSeg{})
			i = len(b.segs) - 1
		} else {
			b.segs = append(b.segs, sentSeg{})
			copy(b.segs[i+1:], b.segs[i:])
		}
	case !b.segs[i].lost:
		old := &b.segs[i]
		replaced = int(old.end - old.seq)
		if old.end == end {
			rexmit = true
		}
		ord = old.ord
	default:
		b.live++
		ord = b.survivingOrd(&b.segs[i], pos)
		if ord != pos {
			b.logAt(ord).first = true
		}
	}
	b.segs[i] = sentSeg{seq: seq, end: end, sendIdx: pos, fackBase: fackBase, ord: ord, rexmit: rexmit}
	if b.logHead == len(b.log) {
		b.log, b.logHead, b.logBase = b.log[:0], 0, pos
	}
	b.log = appendSlid(b.log, &b.logHead, logEnt{seq: seq, first: ord == pos})
	return replaced
}

// survivingOrd returns the first log position not yet trimmed that
// transmitted lost record s's sequence, or pos (the retransmission
// about to be logged) if the trim has passed them all. Past the first
// transmission, only a tail-loss probe can have logged the sequence.
func (b *scoreboard) survivingOrd(s *sentSeg, pos uint64) uint64 {
	for p := max(s.ord, b.logBase); p <= s.sendIdx; p++ {
		if b.logAt(p).seq == s.seq {
			return p
		}
	}
	return pos
}

func (b *scoreboard) logAt(pos uint64) *logEnt {
	return &b.log[b.logHead+int(pos-b.logBase)]
}

// drop clears the log mark of a record leaving the tracked set.
func (b *scoreboard) drop(s *sentSeg) {
	b.live--
	b.logAt(s.ord).first = false
}

// compact trims the transmit log's head past positions that are no
// tracked record's ord. It runs where the old list was last compacted
// before any transmission could follow: after each ack's SACK pass and
// after the RTO requeue. Trimming elsewhere changes which occurrence a
// revived record resumes from.
func (b *scoreboard) compact() {
	for b.logHead < len(b.log) && !b.log[b.logHead].first {
		b.logHead++
		b.logBase++
	}
}

// popBelow removes every record ending at or below ackNum and returns
// the tracked ones in visiting order. The result is valid until the
// next call that returns a batch.
func (b *scoreboard) popBelow(ackNum uint64) []sentSeg {
	out := b.batch[:0]
	for b.head < len(b.segs) && b.segs[b.head].end <= ackNum {
		if s := &b.segs[b.head]; !s.lost {
			b.drop(s)
			out = append(out, *s)
		}
		b.head++
	}
	return b.finish(out)
}

// takeSacked removes the tracked records below high that sacked fully
// covers and returns them in visiting order.
func (b *scoreboard) takeSacked(sacked *ranges.Set, high uint64) []sentSeg {
	out := b.batch[:0]
	k := b.head
	for k < len(b.segs) && b.segs[k].seq < high {
		if s := &b.segs[k]; !s.lost && sacked.ContainsRange(s.seq, s.end) {
			b.drop(s)
			out = append(out, *s)
			s.end = 0 // tombstone for the sweep below
		}
		k++
	}
	if len(out) > 0 {
		// Close the gaps by sliding the survivors of segs[head:k] up
		// against k: only the scanned region moves.
		w := k
		for i := k - 1; i >= b.head; i-- {
			if b.segs[i].end != 0 {
				w--
				b.segs[w] = b.segs[i]
			}
		}
		b.head = w
	}
	b.compact()
	return b.finish(out)
}

// takeUnsacked marks every tracked record that sacked does not fully
// cover as lost and returns them in visiting order (the RTO requeue).
func (b *scoreboard) takeUnsacked(sacked *ranges.Set) []sentSeg {
	out := b.batch[:0]
	for i := b.head; i < len(b.segs); i++ {
		if s := &b.segs[i]; !s.lost && !sacked.ContainsRange(s.seq, s.end) {
			b.drop(s)
			s.lost = true
			out = append(out, *s)
		}
	}
	b.compact()
	return b.finish(out)
}

// markLost marks the tracked record for seq as lost, reporting whether
// there was one.
func (b *scoreboard) markLost(seq uint64) bool {
	i, found := b.find(seq)
	if !found || b.segs[i].lost {
		return false
	}
	b.drop(&b.segs[i])
	b.segs[i].lost = true
	return true
}

// below returns the records (tracked and lost) starting below high, in
// sequence order.
func (b *scoreboard) below(high uint64) []sentSeg {
	k := b.head
	for k < len(b.segs) && b.segs[k].seq < high {
		k++
	}
	return b.segs[b.head:k]
}

// headAt returns the lowest record if it is tracked and starts at seq.
func (b *scoreboard) headAt(seq uint64) (*sentSeg, bool) {
	if b.head < len(b.segs) && b.segs[b.head].seq == seq && !b.segs[b.head].lost {
		return &b.segs[b.head], true
	}
	return nil, false
}

// tail returns the highest tracked record.
func (b *scoreboard) tail() (*sentSeg, bool) {
	for i := len(b.segs) - 1; i >= b.head; i-- {
		if !b.segs[i].lost {
			return &b.segs[i], true
		}
	}
	return nil, false
}

func (b *scoreboard) finish(out []sentSeg) []sentSeg {
	sortByOrd(out)
	b.batch = out[:0]
	return out
}

// sortByOrd insertion-sorts a batch into visiting order. Batches arrive
// in sequence order, which matches ord except around retransmissions,
// so this is linear in practice.
func sortByOrd(s []sentSeg) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].ord < s[j-1].ord; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// appendSlid appends v to s[*head:], first sliding the live region back
// to the front of the backing array when that frees at least half of
// it, so a queue popped at the front and pushed at the back reuses its
// storage instead of reallocating.
func appendSlid[T any](s []T, head *int, v T) []T {
	if len(s) == cap(s) && *head > 0 && *head >= len(s)/2 {
		n := copy(s, s[*head:])
		s = s[:n]
		*head = 0
	}
	return append(s, v)
}
