package simmpi

// RunReference exposes the reference runtime (reference_test.go) to the
// package's external tests, which replay whole benchmark bodies on it.
var RunReference = runRef
