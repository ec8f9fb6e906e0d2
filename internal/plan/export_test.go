package plan

// OracleJSON exposes the reflective reference encoder to the external test
// package, whose tests build real plans through core (which imports plan).
var OracleJSON = oracleJSON
