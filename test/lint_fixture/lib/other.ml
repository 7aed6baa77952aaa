let same_name = 0
