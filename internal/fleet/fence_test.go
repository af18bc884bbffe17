package fleet

import (
	"errors"
	"testing"
)

// TestFenceConflict: two rollouts over overlapping VIP groups cannot
// both hold the fence — the second is refused with the contended VIP
// named.
func TestFenceConflict(t *testing.T) {
	f := NewFence()
	if err := f.acquire("r1", []string{"vip-a", "vip-b"}); err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	err := f.acquire("r2", []string{"vip-b", "vip-c"})
	if err == nil {
		t.Fatal("overlapping acquire succeeded")
	}
	var fe *errFenced
	if !errors.As(err, &fe) {
		t.Fatalf("error type %T, want *ErrFenced", err)
	}
	if fe.vip != "vip-b" || fe.holder != "r1" {
		t.Fatalf("fenced on %q by %q, want vip-b by r1", fe.vip, fe.holder)
	}
}

// TestFenceAllOrNothing: a refused acquire claims nothing, so the
// non-contended VIPs stay free for others.
func TestFenceAllOrNothing(t *testing.T) {
	f := NewFence()
	f.acquire("r1", []string{"vip-b"})
	if err := f.acquire("r2", []string{"vip-a", "vip-b"}); err == nil {
		t.Fatal("contended acquire succeeded")
	}
	if h := f.Holder("vip-a"); h != "" {
		t.Fatalf("vip-a leaked to %q on a failed acquire", h)
	}
	if err := f.acquire("r3", []string{"vip-a"}); err != nil {
		t.Fatalf("vip-a should be free: %v", err)
	}
}

// TestFenceReacquireAndRelease: re-acquiring held VIPs (crash resume)
// is a no-op; Release frees everything the rollout held.
func TestFenceReacquireAndRelease(t *testing.T) {
	f := NewFence()
	f.acquire("r1", []string{"vip-a", "vip-b"})
	if err := f.acquire("r1", []string{"vip-a", "vip-b", "vip-c"}); err != nil {
		t.Fatalf("same-rollout reacquire: %v", err)
	}
	f.release("r1")
	for _, v := range []string{"vip-a", "vip-b", "vip-c"} {
		if h := f.Holder(v); h != "" {
			t.Fatalf("%s still held by %q after release", v, h)
		}
	}
}

// TestFenceUnfencedNodes: empty VIPs ("" = node outside any group) are
// ignored, and a nil fence is a pass-through.
func TestFenceUnfencedNodes(t *testing.T) {
	f := NewFence()
	if err := f.acquire("r1", []string{"", "", "vip-a"}); err != nil {
		t.Fatalf("acquire with empty vips: %v", err)
	}
	if err := f.acquire("r2", []string{""}); err != nil {
		t.Fatalf("empty-only acquire fenced: %v", err)
	}
	var nilF *fence
	if err := nilF.acquire("r", []string{"v"}); err != nil {
		t.Fatalf("nil fence: %v", err)
	}
	nilF.release("r")
}
