package check

import (
	"errors"
	"testing"

	"utlb/internal/obs"
)

func pin(xfer, pages uint32) obs.Event {
	return obs.Event{Kind: obs.KindPin, PID: 1, Arg: pages, Xfer: xfer}
}

func cache(kind obs.Kind, vpn, arg2 uint32) obs.Event {
	return obs.Event{Kind: kind, PID: 1, Arg: vpn, Arg2: arg2, Xfer: 1}
}

func TestStreams(t *testing.T) {
	unpin := obs.Event{Kind: obs.KindKernelUnpin, PID: 1, Arg: 1, Xfer: 2}
	for _, tc := range []struct {
		name   string
		events []obs.Event
		want   error
	}{
		{"pins up to the limit", []obs.Event{pin(1, 3), pin(2, 1)}, nil},
		{"a refused pin retried after an eviction", []obs.Event{pin(1, 3), pin(2, 2), unpin, pin(2, 2)}, nil},
		{"a refused pin retried on fewer pages", []obs.Event{pin(1, 3), pin(2, 2), pin(2, 1)}, nil},
		{"an over-limit pin never retried", []obs.Event{pin(1, 3), pin(2, 2)}, ErrPinLimit},
		{"an over-limit pin the next transfer follows", []obs.Event{pin(1, 3), pin(2, 2), pin(3, 1)}, ErrPinLimit},
		{"an unpin frees room", []obs.Event{pin(1, 4), unpin, pin(3, 1)}, nil},
		{"another process has its own count", []obs.Event{pin(1, 4), {Kind: obs.KindPin, PID: 2, Arg: 4, Xfer: 1}}, nil},
		{"a hit after a fill", []obs.Event{cache(obs.KindCacheFill, 7, 0), cache(obs.KindCacheHit, 7, 1)}, nil},
		{"a hit after an invalidation", []obs.Event{cache(obs.KindCacheFill, 7, 0),
			cache(obs.KindCacheInvalidate, 7, 1), cache(obs.KindCacheHit, 7, 1)}, ErrStaleHit},
		{"a hit after an eviction", []obs.Event{cache(obs.KindCacheFill, 7, 0),
			cache(obs.KindCacheEvict, 7, 0), cache(obs.KindCacheHit, 7, 1)}, ErrStaleHit},
		{"a hit after a process sweep", []obs.Event{cache(obs.KindCacheFill, 7, 0), cache(obs.KindCacheFill, 9, 0),
			cache(obs.KindCacheInvalidate, 0, 2), cache(obs.KindCacheHit, 9, 1)}, ErrStaleHit},
		{"a hit after a refill", []obs.Event{cache(obs.KindCacheFill, 7, 0), cache(obs.KindCacheEvict, 7, 0),
			cache(obs.KindCacheFill, 7, 0), cache(obs.KindCacheHit, 7, 1)}, nil},
		{"an eviction of another key", []obs.Event{cache(obs.KindCacheFill, 7, 0),
			cache(obs.KindCacheEvict, 8, 0), cache(obs.KindCacheHit, 7, 1)}, nil},
	} {
		err := Run(obs.NewRun(tc.name, tc.events), 4)
		if tc.want == nil && err != nil || !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}
