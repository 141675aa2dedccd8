module funabuse/bench

go 1.24

require funabuse v0.0.0

replace funabuse => ../
