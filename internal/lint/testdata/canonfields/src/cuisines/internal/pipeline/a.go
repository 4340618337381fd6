// Fixture for the canonfields analyzer, pipeline target: the
// stage-key functions (Run/RunOn/runFrom) collectively miss Params'
// Extra field.
package pipeline

type Params struct {
	Seed    uint64
	Scale   float64
	Extra   int
	Workers int
}

type Pipeline struct{}

func (p *Pipeline) Run(pr Params) { // want `does not reference exported field Extra`
	_ = pr.Seed
	_ = pr.Scale
	p.runFrom(pr)
}

func (p *Pipeline) RunOn(pr Params) { p.runFrom(pr) }

func (p *Pipeline) runFrom(pr Params) { _ = pr.Scale }
