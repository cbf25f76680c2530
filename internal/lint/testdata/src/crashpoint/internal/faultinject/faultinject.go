// Package faultinject is a crashpoint-fixture mirror of the real fault
// plane: a Point registry plus the Plane method whose hits make a point
// live.
package faultinject

// Point names one crash point; the zero Point is no crash.
type Point uint8

// The fixture registry: one live point, one dead one, and one dead point
// whose finding a directive suppresses.
const (
	_ Point = iota
	PtDiskWrite
	PtDead
	//qsvet:ignore crashpoint fixture: demonstrating the suppression directive
	PtDocOnly
	numPoints // not a Pt* constant: never reported
)

// Plane is the fault-injection plane.
type Plane struct{}

// Hit reports a crash point being reached.
func (p *Plane) Hit(point Point) error { return nil }

// ArmCrash schedules a crash at a point. Arming does not make a point
// live: only a Hit reaches it.
func (p *Plane) ArmCrash(point Point, after int) {}
