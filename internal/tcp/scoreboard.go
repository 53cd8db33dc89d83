package tcp

import "quiclab/internal/ranges"

// sentSeg is the scoreboard's record of one transmitted sequence range,
// kept for RTT sampling and loss detection. Unlike QUIC, a
// retransmission reuses the same sequence range (the retransmission
// ambiguity the paper contrasts with QUIC's fresh packet numbers), so it
// overwrites the record in place.
type sentSeg struct {
	seq, end uint64
	sendIdx  uint64 // cc packet index of the latest transmission
	// fackBase is the highest SACKed sequence at transmit time: loss
	// re-detection for a retransmission requires new SACK evidence
	// beyond this point (prevents retransmit storms).
	fackBase uint64
	rexmit   bool
	// lost marks a record declared lost (or requeued by an RTO) and not
	// yet retransmitted. It no longer counts as in flight; it stays in
	// place because removing it would move every record above it.
	lost bool
}

// scoreboard is the sender's record of transmitted, not yet
// cumulatively acked segments, sorted by sequence so that every ack
// touches only what it acknowledges: a cumulative ack pops a prefix,
// SACK and loss passes stop at the highest SACKed byte, the dupack head
// is the first record and the tail-loss probe the last (DESIGN.md §12).
// Every batch is visited in sequence order, as a kernel walks its
// retransmit queue.
type scoreboard struct {
	segs []sentSeg // segs[head:] sorted by seq, non-overlapping
	head int
	live int // records not marked lost

	batch []sentSeg // scratch returned by the take/pop methods
}

// reset empties the board, keeping its storage.
func (b *scoreboard) reset() {
	*b = scoreboard{segs: b.segs[:0], batch: b.batch[:0]}
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

// add records a transmission of [seq, end) with cc packet index
// sendIdx. A tracked record for seq is overwritten and its length
// returned (a same-range retransmission counts as rexmit); a lost one is
// revived.
func (b *scoreboard) add(seq, end, sendIdx uint64, rexmit bool, fackBase uint64) (replaced int) {
	i, found := b.find(seq)
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
	default:
		b.live++
	}
	b.segs[i] = sentSeg{seq: seq, end: end, sendIdx: sendIdx, fackBase: fackBase, rexmit: rexmit}
	return replaced
}

// popBelow removes every record ending at or below ackNum and returns
// the tracked ones. The result is valid until the next call that
// returns a batch.
func (b *scoreboard) popBelow(ackNum uint64) []sentSeg {
	out := b.batch[:0]
	for b.head < len(b.segs) && b.segs[b.head].end <= ackNum {
		if s := &b.segs[b.head]; !s.lost {
			b.live--
			out = append(out, *s)
		}
		b.head++
	}
	b.batch = out[:0]
	return out
}

// takeSacked removes the tracked records below high that sacked fully
// covers and returns them.
func (b *scoreboard) takeSacked(sacked *ranges.Set, high uint64) []sentSeg {
	out := b.batch[:0]
	k := b.head
	for k < len(b.segs) && b.segs[k].seq < high {
		if s := &b.segs[k]; !s.lost && sacked.ContainsRange(s.seq, s.end) {
			b.live--
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
	b.batch = out[:0]
	return out
}

// takeUnsacked marks every tracked record that sacked does not fully
// cover as lost and returns them (the RTO requeue).
func (b *scoreboard) takeUnsacked(sacked *ranges.Set) []sentSeg {
	out := b.batch[:0]
	for i := b.head; i < len(b.segs); i++ {
		if s := &b.segs[i]; !s.lost && !sacked.ContainsRange(s.seq, s.end) {
			b.live--
			s.lost = true
			out = append(out, *s)
		}
	}
	b.batch = out[:0]
	return out
}

// below returns the records (tracked and lost) starting below high.
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
