// Package srv exercises the crashpoint analyzer against the fixture plane.
package srv

import "quickstore/internal/faultinject"

// drive hits PtDiskWrite, making it live; PtDead is only armed.
func drive(p *faultinject.Plane, pt faultinject.Point) error {
	p.ArmCrash(faultinject.PtDead, 1)
	if err := p.Hit(faultinject.PtDiskWrite); err != nil {
		return err
	}
	// A dynamic point makes no particular point live.
	return p.Hit(pt)
}
