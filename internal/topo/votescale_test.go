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
		if got := len(c.Engine.ValidatorSet().Validators); got != 9 {
			t.Fatalf("chain %d validator set size = %d, want 9", i, got)
		}
	}
}
