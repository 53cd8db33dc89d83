package core

import (
	"testing"
	"time"

	"quiclab/internal/device"
	"quiclab/internal/web"
)

// TestTCPRTOStuckCellCompletes replays the lossy-sweep cell that used to
// hit its deadline: 2 MiB at 20 Mbps with 2% loss and 5 ms jitter, base
// seed 1, scenario 3, round 10 of the perfbench-lossy sweep, TCP arm.
// TCP declared a hole lost while cwnd-limited; every RTO then queued the
// newer outstanding segments in front of it, so the hole never went out
// and the cumulative ack never advanced.
func TestTCPRTOStuckCellCompletes(t *testing.T) {
	sc := Scenario{
		Seed: 1, RateMbps: 20, LossPct: 2, Jitter: 5 * time.Millisecond,
		Page:   web.Page{NumObjects: 1, ObjectSize: 2 << 20},
		Device: device.Desktop,
	}
	res := sc.perturbed(10).RunPLT(TCP, CellSeed(1, "perfbench-lossy", 3, 10))
	if !res.Completed {
		t.Fatalf("TCP transfer did not complete (%s, PLT %v)", res.FailureReason, res.PLT)
	}
	// Rounds 0-39 of this scenario take 7-17 s; the stuck run sat in
	// RTO backoff until the 46.8 s deadline.
	if res.PLT > 20*time.Second {
		t.Fatalf("PLT %v: recovery stalled in RTO backoff", res.PLT)
	}
}
