// Fixture for the canonfields analyzer, root-package target: Options
// grows a field (NewKnob) that Canonical never references. Workers is
// the configured exclusion and must not be reported.
package cuisines

type Options struct {
	Seed    uint64
	Scale   float64
	Workers int
	NewKnob string
}

func (o Options) Canonical() (Options, error) { // want `does not reference exported field NewKnob`
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Scale <= 0 {
		o.Scale = 1
	}
	return o, nil
}

//lint:allow notananalyzer the auditor must report this unknown name
func unrelated() {}
