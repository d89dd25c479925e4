package rng

// Test hooks for the external test package.
var CheckZipfExact = checkZipfExact
