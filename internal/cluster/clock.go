package cluster

import "time"

// Clock abstracts time for the peer health machine and its heartbeat
// loop. Production uses the real clock; the chaos and unit tests drive the
// alive→suspect→dead transitions deterministically through a fake, so no
// test ever sleeps its way to a state change.
type Clock interface {
	Now() time.Time
	After(d time.Duration) <-chan time.Time
}

type realClock struct{}

func (realClock) Now() time.Time {
	//collsel:wallclock peer health timestamps and heartbeat pacing are serving-tier operational state, outside any artifact or simulation result
	return time.Now()
}

func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// RealClock returns the wall clock.
func RealClock() Clock { return realClock{} }
