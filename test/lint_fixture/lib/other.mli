val same_name : int
