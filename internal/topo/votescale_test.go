package topo

import "testing"

// TestDeployValidatorsOverride pins the -validators axis: the deploy
// config's set size reaches every chain's consensus engine.
func TestDeployValidatorsOverride(t *testing.T) {
	d, err := Deploy(TwoChain(), DeployConfig{Validators: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range d.Chains {
		if got := c.Engine.ValidatorSet().Size(); got != 9 {
			t.Fatalf("chain %d validator set size = %d, want 9", i, got)
		}
	}
	// Per-chain spec overrides still win over the deploy default.
	tp := TwoChain()
	tp.Chains[1].Validators = 5
	d, err = Deploy(tp, DeployConfig{Validators: 9})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := d.Chains[0].Engine.ValidatorSet().Size(), d.Chains[1].Engine.ValidatorSet().Size(); a != 9 || b != 5 {
		t.Fatalf("validator sizes = %d,%d, want 9,5", a, b)
	}
}
