package main

// Digests of one pass's simulation results, recorded from the simulator
// whose fig5 and table outputs the repository pins byte for byte. A pass
// whose digest differs simulated something else and fails the run.
const (
	goldenFig5Sweep     = "98110167c32ef4e0420f955f91ec37d608116cb182ac7e9b1bebfcb6e72d0fd8"
	goldenDefensesSetup = "9a118ce14b96298a8fec6b4d5d557f8e38f685a351b48f2c8e8e3defefe05d8f"
)
